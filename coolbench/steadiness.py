"""Run one workload on several seeds and report the spread of each metric.

    python3 coolbench/steadiness.py --workload scan_fit --seeds 1-10 --seconds 20

For each metric: the ten values, their median, and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of
the median.  Also the failed share of attempted operations per run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    shares = []
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed/attempted={shares[-1]} "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"{args.workload} {name}: median {median:.6g} IQR/median {spread:.4f} "
              f"min {min(vals):.6g} max {max(vals):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
