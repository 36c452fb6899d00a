#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload N times, each with another seed, for BENCHMARK.json's
run_seconds, and prints for every end_to_end metric its median and the
distance between its first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound.  Use it
to check the benchmark is steady, and to compare two commits: a metric
moved only when the medians differ by more than this spread.

Usage:  python3 perfbench/spread.py --workload chip-hh [--runs 10]
                                    [--first-seed 1] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["correct"], f"seed {seed}: output checks failed"
        print(json.dumps({"seed": seed, "metrics": {
            k: v["value"] for k, v in res["metrics"].items()}}), flush=True)
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        share = (q[2] - q[0]) / med
        flag = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"{args.workload} {m['name']:16s} median {med:.6g} {m['unit']:10s}"
              f" iqr/median {share:.4f} bound {m['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
