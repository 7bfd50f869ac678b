#!/usr/bin/env python3
"""Runs lvperf on one workload with several seeds and prints, for each
metric, the median and the quartile spread (Q3 - Q1) / median that the
benchmark's bounds are checked against. Run from the checkout root:

    python3 lvperf/spread.py --workload grid-400 --runs 5 --seconds 10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            ["bash", "lvperf/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{name:32s} median {med:14.6g}  spread {spread:7.4f}  "
              f"[{' '.join(f'{x:.4g}' for x in v)}]")


if __name__ == "__main__":
    main()
