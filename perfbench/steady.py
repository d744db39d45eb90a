"""Steadiness of the benchmark: repeated runs of one workload, and a
comparison of two sets of runs against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py run --workload blobs-random10 --seeds 1-10
    python3 perfbench/steady.py compare perfbench/_out/A.json perfbench/_out/B.json

`run` starts the benchmark command once per seed, one run at a time, and
reports for each metric its median, quartiles (statistics.quantiles, n=4),
sample count and spread: the interquartile range as a share of the median.
It saves the runs and the statistics as JSON under perfbench/_out/.

`compare` checks that the two sets' medians differ by no more than each
metric's bound, in either direction, that every spread is within its bound,
and that both sets fail the same share of operations.

How the bounds were set (BOUND_RULE): each end-to-end bound is three times
the largest spread measured for that metric over the workloads, rounded up to
the next 0.05 and capped at 0.25.  `run` prints the bound this rule suggests
next to the bound in force.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
BOUND_CAP = 0.25
BOUND_RULE = (
    "bound = min(0.25, ceil_0.05(3 * largest IQR/median spread measured over the "
    "workloads))"
)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def suggested_bound(spread: float) -> float:
    return min(BOUND_CAP, math.ceil(3 * spread * 20 - 1e-9) / 20)


def stats_of(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def cmd_run(args) -> int:
    bench = load_benchmark()
    command = bench["command"]
    seconds = str(bench["run_seconds"])
    runs = []
    for seed in parse_seeds(args.seeds):
        argv = [*command, "--workload", args.workload, "--seed", str(seed),
                "--seconds", seconds, "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: {wall:.1f}s attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}", flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    metrics = {}
    for name in runs[0]["metrics"]:
        st = stats_of([r["metrics"][name]["value"] for r in runs])
        st["unit"] = runs[0]["metrics"][name]["unit"]
        st["bound"] = bounds.get(name)
        st["suggested_bound"] = suggested_bound(st["spread"]) if name in bounds else None
        metrics[name] = st
    doc = {
        "workload": args.workload,
        "run_seconds": bench["run_seconds"],
        "bound_rule": BOUND_RULE,
        "failed_share": [r["failed"] / r["attempted"] for r in runs],
        "metrics": metrics,
        "runs": runs,
    }
    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / (
        f"steady-{args.workload}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    out.write_text(json.dumps(doc, indent=1))
    print_table(metrics)
    print(f"saved {out}")
    return 0


def print_table(metrics: dict) -> None:
    print(f"{'metric':32s} {'unit':6s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s} {'rule':>6s}")
    for name, st in metrics.items():
        bound = "" if st["bound"] is None else f"{st['bound']:.2f}"
        rule = "" if st["suggested_bound"] is None else f"{st['suggested_bound']:.2f}"
        print(f"{name:32s} {st['unit']:6s} {st['n']:3d} {st['median']:12.6g} "
              f"{st['q1']:12.6g} {st['q3']:12.6g} {st['spread']:7.3f} {bound:>6s} {rule:>6s}")


def cmd_compare(args) -> int:
    bench = load_benchmark()
    spec = {m["name"]: m for m in bench["end_to_end"]}
    first, second = (json.loads(Path(p).read_text()) for p in (args.first, args.second))
    ok = True
    print(f"{'metric':24s} {'median 1':>12s} {'median 2':>12s} {'change':>9s} "
          f"{'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}  verdict")
    for name, m in spec.items():
        a, b = first["metrics"][name], second["metrics"][name]
        change = (b["median"] - a["median"]) / a["median"]
        good = (abs(change) <= m["bound"]
                and a["spread"] <= m["bound"] and b["spread"] <= m["bound"])
        ok = ok and good
        print(f"{name:24s} {a['median']:12.6g} {b['median']:12.6g} {change:+9.3f} "
              f"{a['spread']:9.3f} {b['spread']:9.3f} {m['bound']:6.2f}  "
              f"{'ok' if good else 'FAIL'}")
    shares = set(first["failed_share"]) | set(second["failed_share"])
    print(f"failed share per run: {sorted(shares)}")
    ok = ok and len(shares) == 1
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run one workload once per seed")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--out", help="output JSON (default under perfbench/_out/)")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="compare two saved sets of runs")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    cmp_.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
