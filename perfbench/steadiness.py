"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload cli-runs ...]
        [--trace 0] [--label set1]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json.  It also checks that the share of failed
operations is the same on every run.  The summary is written to
perfbench/out/steadiness-<label>.json; the README's reference figures come
from these summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import speed_factor  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def timed_rates(workload: str, seeds: list[int], trace: int) -> list[float]:
    """Calibrated operations per timed second of the recorded runs of these
    seeds."""
    rates = []
    for seed in seeds:
        path = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
        if path.exists():
            worker = json.loads(path.read_text())["worker"]
            ns = worker["durations_ns"]
            rates.append(len(ns) / (sum(ns) / 1e9) * speed_factor(worker["kernel_s"]))
    return rates


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="latest")
    args = ap.parse_args()

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    summary = {}
    for workload in args.workload or names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if args.trace:
            traced = timed_rates(workload, parse_seeds(args.seeds), 1)
            plain = timed_rates(workload, parse_seeds(args.seeds), 0)
            overhead = {
                "traced_ops_per_s": statistics.median(traced),
                "untraced_ops_per_s": statistics.median(plain) if plain else None,
            }
            if plain:
                overhead["overhead"] = overhead["untraced_ops_per_s"] / overhead["traced_ops_per_s"] - 1
            print(f"{workload}: tracing overhead {overhead}")
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                          "bound": bounds[name], "values": values}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_shares": sorted(str(s) for s in shares),
            "attempted": sorted({r["attempted"] for r in runs}),
            "metrics": rows,
        }
        if args.trace:
            summary[workload]["tracing"] = overhead
        print(f"\n{workload}: correct={summary[workload]['correct']} "
              f"failed share(s)={summary[workload]['failed_shares']}")
        for name, row in rows.items():
            bound = "" if row["bound"] is None else f"bound {row['bound']:.2f}"
            print(f"  {name:48s} median {row['median']:<12.6g} spread {row['spread']:.4f} {bound}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steadiness-{args.label}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
