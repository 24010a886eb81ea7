"""Run the benchmark once per seed and summarise each metric's spread.

Usage (from the repository root):

    python3 perfbench/repeat.py --workload holdout-analytics --seeds 1-10 [--seconds 40] [--trace 0]

Each run's wall time, set-up included, is printed and kept.  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
which BENCHMARK.json's bounds are judged against.  The per-run values are
written as JSON to ``.perfbench/repeat-<workload>-trace<t>.json``.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        wall_s = time.perf_counter() - t0
        result = json.loads(proc.stdout.splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall_s, **result})
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: {wall_s:.1f} s correct={result['correct']} failed={result['failed']} {values}", flush=True)
    names = runs[0]["metrics"]
    summary = {name: summarise([r["metrics"][name]["value"] for r in runs]) for name in names}
    for name, s in summary.items():
        print(f"{name:<34} " + " ".join(f"{k} {v:<14.6g}" for k, v in s.items()))
    out = os.path.join(ROOT, ".perfbench", f"repeat-{args.workload}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "runs": runs, "summary": summary}, fh, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
