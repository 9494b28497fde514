"""One workload process: set up, say READY, run the timed operations,
print one RESULT line.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/.  With --setup-only it exits after READY, which is how
run.py takes several set-up times in one run.  With --trace 1 the layer
functions are wrapped before set-up; for cli-runs each command then runs in
a fresh clitrace.py process and its Stats are summed here.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads
from calibrate import SAMPLE_EVERY_S, kernel_seconds
from procs import run_process
from stats import Tally

CLITRACE = Path(__file__).with_name("clitrace.py")


def traced_cli_runner(children: list):
    """A cli-runs runner that runs each command through clitrace.py and
    appends the child's Stats to `children`."""
    from tracer import Stats

    def run(args: list[str]) -> workloads.CliResult:
        proc = run_process([sys.executable, str(CLITRACE), *args], timeout=120,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"clitrace failed: {proc.stderr.strip()[-500:]}")
        data = json.loads(proc.stdout.splitlines()[-1])
        children.append(Stats.from_json(data["stats"]))
        return workloads.CliResult(data["exit_code"], data["stdout"])

    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    cli_stats = None
    if args.trace and args.workload == "cli-runs":
        cli_stats = []
        workload = workloads.CliRuns(traced_cli_runner(cli_stats))
    else:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload = workloads.WORKLOADS[args.workload]()
    workload.prepare()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    passes = workload.passes(args.seed, args.passes)
    setup_stats = tracer.stats.copy() if tracer else None
    tally = Tally()
    labels: list[str] = []
    durations_ns: list[int] = []
    widths: list[float] = []
    kernel_seconds()
    kernel_s = [kernel_seconds()]
    since_sample_ns = 0
    for ops in passes:
        for op in ops:
            if since_sample_ns >= SAMPLE_EVERY_S * 1e9:
                kernel_s.append(kernel_seconds())
                since_sample_ns = 0
            labels.append(op.label)
            problems = None
            start = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises has failed
                problems = [f"raised {exc!r}"]
            durations_ns.append(time.perf_counter_ns() - start)
            since_sample_ns += durations_ns[-1]
            if problems is None:
                try:
                    widths.extend(op.widths(result))
                    problems = op.check(result)
                except Exception as exc:  # output of an unexpected shape is wrong
                    problems = [f"check raised {exc!r}"]
            tally.record(op.label, problems, op.fault)
    kernel_s.append(kernel_seconds())

    if args.workload == "cli-runs":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {
        "labels": labels,
        "durations_ns": durations_ns,
        "kernel_s": kernel_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "expected_faults": tally.expected,
        "faults_gone": sorted(tally.fault_gone),
        "widths": widths,
        "peak_rss_kb": peak_kb,
    }
    if cli_stats is not None:
        from tracer import Stats

        out["timed"] = out["whole"] = sum(cli_stats, Stats()).to_json()
    elif tracer is not None:
        out["timed"] = (tracer.stats - setup_stats).to_json()
        out["whole"] = tracer.stats.to_json()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
