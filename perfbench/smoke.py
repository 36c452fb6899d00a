#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

Runs every workload named in BENCHMARK.json at a tiny kernel scale,
untraced and traced, and asserts that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics; the output checks pass;
  - every end_to_end metric (trace 0) or per_layer metric (trace 1) of
    BENCHMARK.json is printed, with its unit, and nothing else;
  - in the traced run, every point's NoC phase spans fit inside its run
    span, and chip-perfect (ideal network) has no NoC phase spans;
  - in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.

Usage, from the root of a source tree:  python3 perfbench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.01"
SEED = "7"


def run(root, workload, trace):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "0.5",
           "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)


def check_result(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
    assert res["correct"] is True and res["failed"] == 0, res
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = res["metrics"]
    assert set(got) == set(units), \
        f"{workload}: metric names differ: {set(got) ^ set(units)}"
    for name, unit in units.items():
        assert got[name]["unit"] == unit, f"{name}: unit {got[name]['unit']}"
        assert isinstance(got[name]["value"], (int, float)), name
    if not trace:
        for name in units:
            assert got[name]["value"] > 0, f"{workload}: {name} is 0"


def check_spans(workload):
    path = os.path.join(ROOT, ".bench_build", "spans",
                        f"{workload}-seed{SEED}.json")
    with open(path) as f:
        spans = json.load(f)["spans"]
    runs = {s["id"]: s for s in spans if s["name"] == "run"}
    assert runs and any(s["name"] == "setup" for s in spans), workload
    phases = {}
    for s in spans:
        if s["name"].startswith("noc."):
            phases[s["parent"]] = phases.get(s["parent"], 0) + s["dur_s"]
    if workload == "chip-perfect":
        assert not phases, "ideal network reported NoC phases"
    else:
        assert set(phases) == set(runs), f"{workload}: runs without phases"
    for rid, total in phases.items():
        assert total <= runs[rid]["dur_s"], f"{workload}: phases > run"


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "chip-hh", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "bare directory: exit 0"
    assert not proc.stdout.strip(), "bare directory printed a result"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace)
        check_spans(w["name"])
        print(f"ok {w['name']}")
    check_bare_directory()
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
