"""Alternating parent/change benchmark pairs, summarized as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --seeds 901-910 --out BENCH_8.json

--parent and --change are two checkouts of the repository, for example a
`git clone` of the parent commit beside the working tree.  For every
workload of the change's BENCHMARK.json and every seed, perfbench/run.py
runs once in each checkout (--trace 0, --seconds from BENCHMARK.json), the
parent first on the 1st, 3rd, ... pair and the change first on the others.
Each end-to-end metric gets both sides' runs, median and quartiles, the
pairs the change wins and loses (ties count for neither) and three flags:
gain_claimable, when the change wins at least 9 of 10 pairs and the medians
differ by more than the parent's interquartile distance; within_bound, when
the change's median is no worse than the parent's by more than the metric's
bound in BENCHMARK.json (a fraction of the parent's median); and
unresolved, when the parent's interquartile distance exceeds that bound
(times its median), so the runs spread too widely to tell, and not every
run of the change beats every run of the parent.

peak_rss_mb includes compiling the package whenever bytecode is not cached
(PYTHONDONTWRITEBYTECODE=1, or a fresh checkout), so each in-process
workload also runs twice more per side with bytecode written under a
temporary PYTHONPYCACHEPREFIX, and the second run's peak is recorded.
One traced run per side and workload (--trace 1, first seed) records
the per-layer metrics, to show where a change's time goes.  Each side also
gets the median duration of every operation kind, pooled over its runs
from perfbench/out/<workload>-seed<seed>-trace0.json: the labels with
digits collapsed to '#', each duration divided by its run's operation
speed factor, so the file shows which operations moved the tail.  The
same medians of the raw durations, with no speed factor, sit beside them
(op_kind_median_ms_raw), to tell a moved operation from a moved factor.
The quartiles of each kind's raw durations are recorded and printed too
(op_kind_quartiles_ms_raw), and a kind whose parent q3 exceeds twice its
q1 is listed as mixed (op_kind_mixed): such a kind mixes fast and slow
operations, memo hits and misses for one, so its median shows where the
split fell, not a change in either.
op_kind_tail_counts counts, per side, the operations of each kind that
lie beyond their run's tail percentile (the one op_tail_ms reads, chosen
by perfbench/stats.py), summed over the side's runs, so the file shows
which kinds make up the tail and which left it.

Tier-1 runs TIER1_RUNS (3) times per side, alternating, with
`pytest --durations=0`; the file records the wall time of each run, their
median, the passed count and the call time of each acceptance criterion
(from the median run).  The machine's CPU, core count, platform and
Python version are recorded too, and so is the line count of each side's
src/ Python files (as `wc -l` counts them).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from stats import percentile, tail_percentile  # noqa: E402

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "-p", "no:cacheprovider"]
CRITERION = re.compile(r"^([\d.]+)s call\s+tests/test_acceptance\.py::(test_criterion_\w+)", re.M)
PASSED = re.compile(r"(\d+) passed")
DIGITS = re.compile(r"\d+")
TIER1_RUNS = 3


def parse_seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def bench_run(root: Path, workload: str, seed: int, seconds: int, env: dict,
              trace: int = 0) -> dict:
    """One perfbench run in a checkout; its last stdout line as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd[1:])} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_durations(root: Path, workload: str,
                 seed: int) -> tuple[dict[str, list[float]], float, Counter]:
    """A run's raw operation durations in ms, by operation kind, its
    operation speed factor, and how many operations of each kind lie
    beyond the run's tail percentile (one speed factor scales every
    duration, so raw durations pick the same operations)."""
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    worker = record["worker"]
    ms = [ns / 1e6 for ns in worker["durations_ns"]]
    tail = percentile(ms, tail_percentile(len(ms)))
    out: dict[str, list[float]] = {}
    beyond = Counter()
    for label, x in zip(worker["labels"], ms):
        kind = DIGITS.sub("#", label)
        out.setdefault(kind, []).append(x)
        if x > tail:
            beyond[kind] += 1
    return out, worker["speed_factors"][0], beyond


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def mixed_kinds(parent: dict[str, dict]) -> list[str]:
    """The kinds whose parent q3 exceeds twice their q1."""
    return sorted(kind for kind, q in parent.items() if q["q3"] > 2 * q["q1"])


def summarize(metrics: list[dict], runs: dict[str, list[dict]]) -> dict:
    pairs = len(runs["parent"])
    out = {}
    for m in metrics:
        name, sign, bound = m["name"], 1.0 if m["better"] == "lower" else -1.0, m["bound"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        better = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        worse = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        iqr = parent["q3"] - parent["q1"]
        # every run of the change better than every run of the parent
        separated = (max(sign * c for c in values["change"])
                     < min(sign * p for p in values["parent"]))
        out[name] = {
            "parent": dict(parent, runs=values["parent"]),
            "change": dict(change, runs=values["change"]),
            "change_better_pairs": better,
            "change_worse_pairs": worse,
            "parent_iqr": iqr,
            "gain_claimable": better >= 0.9 * pairs
            and sign * (change["median"] - parent["median"]) < -iqr,
            "within_bound": sign * (change["median"] - parent["median"])
            <= bound * abs(parent["median"]),
            "unresolved": iqr > bound * abs(parent["median"]) and not separated,
        }
    return out


def workload_pairs(roots: dict[str, Path], workload: str, seeds: list[int],
                   seconds: int, metrics: list[dict]) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    kinds: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    raw: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    tails: dict[str, Counter] = {"parent": Counter(), "change": Counter()}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench_run(roots[side], workload, seed, seconds, dict(os.environ)))
            durations, op_speed, beyond = op_durations(roots[side], workload, seed)
            for kind, ms in durations.items():
                kinds[side].setdefault(kind, []).extend(x / op_speed for x in ms)
                raw[side].setdefault(kind, []).extend(ms)
            tails[side].update(beyond)
            r = runs[side][-1]
            print(f"{workload} seed {seed} {side}: failed {r['failed']}/{r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  file=sys.stderr)
    def medians(by_side):
        return {side: {kind: statistics.median(ms) for kind, ms in sorted(k.items())}
                for side, k in by_side.items()}

    quartiles = {side: {kind: spread(ms) for kind, ms in sorted(k.items())}
                 for side, k in raw.items()}
    mixed = mixed_kinds(quartiles["parent"])
    for kind in quartiles["parent"]:
        print(f"{workload} {kind}: raw ms q1/median/q3 "
              + "  ".join(f"{side} " + "/".join(f"{q[kind][k]:.4g}" for k in ("q1", "median", "q3"))
                          for side, q in quartiles.items() if kind in q)
              + ("  mixed" if kind in mixed else ""), file=sys.stderr)
    out = {"seeds": seeds, "pairs": len(seeds), "metrics": summarize(metrics, runs),
           "op_kind_median_ms": medians(kinds), "op_kind_median_ms_raw": medians(raw),
           "op_kind_quartiles_ms_raw": quartiles, "op_kind_mixed": mixed,
           "op_kind_tail_counts": {side: dict(sorted(t.items())) for side, t in tails.items()}}
    for side in runs:
        out[f"{side}_attempted"] = runs[side][0]["attempted"]
        out[f"{side}_failed"] = [r["failed"] for r in runs[side]]
        out[f"{side}_correct"] = all(r["correct"] for r in runs[side])
    return out


def cached_bytecode_rss(roots: dict[str, Path], workload: str, seed: int, seconds: int) -> dict:
    out = {}
    for side, root in roots.items():
        with tempfile.TemporaryDirectory() as prefix:
            env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            runs = [bench_run(root, workload, seed, seconds, env) for _ in range(2)]
        out[side] = runs[1]["metrics"]["peak_rss_mb"]["value"]
    return out


def traced(roots: dict[str, Path], workload: str, seed: int, seconds: int) -> dict:
    return {side: {k: v["value"] for k, v in
                   bench_run(root, workload, seed, seconds, dict(os.environ), 1)["metrics"].items()}
            for side, root in roots.items()}


def tier1_run(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    passed = PASSED.findall(proc.stdout)
    return {
        "wall_s": round(wall, 2),
        "passed": int(passed[-1]) if passed else 0,
        "exit": proc.returncode,
        "criteria_s": {name: float(s) for s, name in CRITERION.findall(proc.stdout)},
    }


def tier1(roots: dict[str, Path]) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(TIER1_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(tier1_run(roots[side]))
            print(f"tier-1 {side}: {runs[side][-1]['wall_s']} s", file=sys.stderr)
    out = {"command": " ".join(["PYTHONPATH=src python"] + TIER1[1:]),
           "order": f"{TIER1_RUNS} alternating runs per side, parent first on odd runs"}
    for side, rs in runs.items():
        walls = [r["wall_s"] for r in rs]
        mid = sorted(rs, key=lambda r: r["wall_s"])[len(rs) // 2]
        out[side] = {"wall_s": statistics.median(walls), "wall_s_runs": walls,
                     "passed": mid["passed"], "exit": mid["exit"],
                     "criteria_s": mid["criteria_s"]}
    return out


def src_lines(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--seeds", type=parse_seeds, required=True,
                    help="seeds as LO-HI; at least 10")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to write")
    args = ap.parse_args()
    if len(args.seeds) < 10:
        ap.error("a claim needs at least 10 pairs")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    report = {
        "machine": machine(),
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "benchmark": {
            "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds} --trace 0",
            "order": "alternating: parent first on the 1st, 3rd, ... pair, change first on the others",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "workloads": {},
        },
        "peak_rss_cached_bytecode_mb": {},
        "traced": {"seed": args.seeds[0], "workloads": {}},
    }
    for name in (w["name"] for w in bench["workloads"]):
        report["benchmark"]["workloads"][name] = workload_pairs(
            roots, name, args.seeds, seconds, bench["end_to_end"])
        if name != "cli-runs":
            report["peak_rss_cached_bytecode_mb"][name] = cached_bytecode_rss(
                roots, name, args.seeds[0], seconds)
        report["traced"]["workloads"][name] = traced(roots, name, args.seeds[0], seconds)
    report["tier1"] = tier1(roots)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
