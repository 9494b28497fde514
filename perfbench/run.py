"""Benchmark for latmoment: three workloads, checked outputs, one JSON line.

    python3 perfbench/run.py --workload bracket-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from src/.  With
--trace 0 the last line of stdout carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  --seconds sets
the number of passes from the pass time measured on the reference machine,
so a run has a fixed list of operations (at least forty) whatever the
commit's speed.  Times are divided by a machine-speed factor
(calibrate.py).  Each run also writes its record to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import kernel_seconds, speed_factor  # noqa: E402
from procs import run_process  # noqa: E402
from stats import geometric_mean, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("bracket-sweep", "exact-oracle", "cli-runs")
# (seconds per pass on the reference machine, operations per pass)
PASS_SHAPE = {"bracket-sweep": (11.0, 71), "exact-oracle": (1.8, 29), "cli-runs": (4.0, 9)}
MIN_OPS = 40
SETUP_REPEATS = 5
# kernel samples taken by run.py before each set-up, for the set-up speed factor
KERNEL_PER_SETUP = 3
IMPORT_REPEATS = 3
WORKER_TIMEOUT_S = 160.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def passes_for(workload: str, seconds: int) -> int:
    pass_s, ops = PASS_SHAPE[workload]
    return max(math.ceil(MIN_OPS / ops), round(seconds / pass_s))


def bench_env(root: Path) -> dict:
    """The caller's environment with one-thread BLAS/OpenMP pools, the
    package on PYTHONPATH and LATMOMENT_THREADS unset."""
    env = dict(os.environ)
    env.pop("LATMOMENT_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


class Worker:
    """worker.py in a fresh interpreter, started and run up to READY.

    `ready_s` is the wall time from the start to READY.  A watchdog kills
    the worker once WORKER_TIMEOUT_S has passed, and so does any exception
    (SIGTERM included) that interrupts the wait for it.
    """

    def __init__(self, root: Path, env: dict, argv: list[str]) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                     cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        self.watchdog = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.watchdog.start()
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self.finish()
            raise
        self.ready_s = time.perf_counter() - start
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"worker failed during set-up (exit {self.proc.returncode})")

    def finish(self) -> str:
        """Read the rest of the worker's stdout and wait for it to end."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return rest

    def result(self) -> dict:
        rest = self.finish()
        last = rest.splitlines()[-1] if rest.strip() else ""
        if self.proc.returncode != 0 or not last.startswith("RESULT "):
            raise BenchError(f"worker ended without a result (exit {self.proc.returncode})")
        return json.loads(last[len("RESULT "):])


def wall_of(root: Path, env: dict, code: str) -> float:
    """Wall seconds of a fresh interpreter running `code`."""
    start = time.perf_counter()
    proc = run_process([sys.executable, "-c", code], timeout=60, cwd=root, env=env)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} exited {proc.returncode}")
    return elapsed


def end_to_end(result: dict, setups: list[float], op_speed: float, setup_speed: float) -> dict:
    """The end-to-end metrics, with operation and set-up times divided by
    their speed factors (calibrate.py)."""
    ms = [ns / 1e6 / op_speed for ns in result["durations_ns"]]
    n = len(ms)
    return {
        "setup_s": (statistics.median(setups) / setup_speed, "s"),
        "ops_per_s": (n / (sum(ms) / 1e3), "1/s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_tail_ms": (percentile(ms, tail_percentile(n)), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
        "bracket_rel_width": (geometric_mean(result["widths"]), "ratio"),
    }


def per_layer(result: dict, root: Path, env: dict) -> dict:
    from tracer import PER_LAYER, Stats, per_layer_metrics

    bare = statistics.median(wall_of(root, env, "pass") for _ in range(IMPORT_REPEATS))
    cli = statistics.median(
        wall_of(root, env, "import latmoment.cli") for _ in range(IMPORT_REPEATS))
    values = per_layer_metrics(Stats.from_json(result["timed"]), Stats.from_json(result["whole"]),
                               (cli - bare) * 1e3)
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "latmoment" / "__init__.py").is_file():
        print("run from the root of a latmoment checkout (src/latmoment is missing)",
              file=sys.stderr)
        return 2
    env = bench_env(root)
    passes = passes_for(args.workload, args.seconds)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--passes", str(passes), "--trace", str(args.trace)]
    try:
        if args.trace:
            result = Worker(root, env, argv).result()
            metrics = per_layer(result, root, env)
        else:
            kernel_s, setups = [], []
            for _ in range(SETUP_REPEATS - 1):
                kernel_s += [kernel_seconds() for _ in range(KERNEL_PER_SETUP)]
                if args.workload == "cli-runs":
                    setups.append(wall_of(root, env, "import latmoment.cli"))
                else:
                    worker = Worker(root, env, argv + ["--setup-only"])
                    worker.finish()
                    setups.append(worker.ready_s)
            kernel_s += [kernel_seconds() for _ in range(KERNEL_PER_SETUP)]
            if args.workload == "cli-runs":
                setups.append(wall_of(root, env, "import latmoment.cli"))
            worker = Worker(root, env, argv)
            result = worker.result()
            if args.workload != "cli-runs":
                setups.append(worker.ready_s)
            speeds = (speed_factor(result["kernel_s"]), speed_factor(kernel_s))
            metrics = end_to_end(result, setups, *speeds)
            result["setup_s"], result["speed_factors"] = setups, speeds
            result["raw_metrics"] = {k: v for k, (v, _) in end_to_end(result, setups, 1, 1).items()}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in result["unexpected"]:
        print(f"FAILED {line}", file=sys.stderr)
    for fault, count in sorted(result["expected_faults"].items()):
        print(f"known fault ({fault}) reproduced by {count} operations", file=sys.stderr)
    for fault in result["faults_gone"]:
        print(f"known fault ({fault}) did not reproduce on some operations", file=sys.stderr)
    n = len(result["durations_ns"])
    print(f"{args.workload}: {passes} passes, {n} operations, tail percentile "
          f"p{tail_percentile(n):g}, timed {sum(result['durations_ns']) / 1e9:.2f} s, "
          f"speed factor {speed_factor(result['kernel_s']):.3f}", file=sys.stderr)
    if "raw_metrics" in result:
        print("before calibration: " + " ".join(
            f"{k}={v:.5g}" for k, v in result["raw_metrics"].items()), file=sys.stderr)
    record = {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(record, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  passes=passes, trace=args.trace, worker=result)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
