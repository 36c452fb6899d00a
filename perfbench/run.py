#!/usr/bin/env python3
"""Builds and runs the closed-loop chip benchmark.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload chip-hh --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the
simulator library from src/ plus chip_bench) into .bench_build/perfbench.
The run then hands its arguments to chip_bench, whose last stdout line is
the result object, and prints that line last.  Per-run records (provenance
and per-point digests) go to .bench_build/records and, with --trace 1,
spans to .bench_build/spans.

When chip-hh and chip-perfect records exist for the same seed and scale,
the run also prints the accuracy line: the perfect-NoC speedup over the
TB-DOR baseline on the HH kernels against the paper's +87% (Fig. 7).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PAPER_HH_PERFECT_SPEEDUP = 1.87
# chip_bench stops within one round of --seconds; a run this much
# longer than --seconds is hung.
HANG_MARGIN_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("run.py: simulator sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "chip_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def record_path(workload, seed, scale):
    return os.path.join(ROOT, ".bench_build", "records",
                        f"{workload}-seed{seed}-scale{scale}.json")


def accuracy_line(seed, scale):
    """HM perfect-NoC speedup on HH from chip-hh's TB-DOR points and
    chip-perfect's HH points, or None until both records exist."""
    try:
        with open(record_path("chip-hh", seed, scale)) as f:
            hh = json.load(f)
        with open(record_path("chip-perfect", seed, scale)) as f:
            perfect = json.load(f)
    except (OSError, ValueError):
        return None
    base = {p["kernel"]: p["ipc"] for p in hh["points"]
            if p["config"].startswith("TB-DOR")}
    ideal = {p["kernel"]: p["ipc"] for p in perfect["points"]
             if p["kernel"] in base}
    if not base or set(ideal) != set(base):
        return None
    hm = len(base) / sum(base[k] / ideal[k] for k in base)
    err = (hm - PAPER_HH_PERFECT_SPEEDUP) / PAPER_HH_PERFECT_SPEEDUP
    return (f"accuracy: perfect-NoC HH speedup {100 * (hm - 1):+.1f}% vs "
            f"paper +87% (Fig. 7): error "
            f"{100 * (hm - PAPER_HH_PERFECT_SPEEDUP):+.1f} points, "
            f"{100 * err:+.1f}% of the paper's 1.87x; seed {seed}, kernel "
            f"scale {scale}; host-time metrics have no reference")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--scale", default="0.1",
                    help="kernel-length factor (shared by all workloads)")
    args = ap.parse_args()

    if not build():
        log("run.py: build failed")
        return 1

    rec = record_path(args.workload, args.seed, args.scale)
    os.makedirs(os.path.dirname(rec), exist_ok=True)
    cmd = [os.path.join(BUILD, "chip_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--record", rec, "--git-sha", git_sha()]
    if args.trace == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans",
                             f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + HANG_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("run.py: chip_bench did not finish in time")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: chip_bench failed (exit {proc.returncode})")
        return 1

    if args.workload in ("chip-hh", "chip-perfect"):
        line = accuracy_line(args.seed, args.scale)
        log(line or "accuracy: needs chip-hh and chip-perfect runs with "
            "the same seed and kernel scale")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
