#!/usr/bin/env python3
"""Smoke test of the benchmark: small configs, full gate and schema.

    python3 perfbench/tests/smoke_test.py [--build-dir DIR]

Checks that BENCHMARK.json keeps the benchmark contract's limits; runs every
workload through run.py --smoke with --trace 0 and --trace 1 (the binary's
smoke mode also self-tests the correctness gate on perturbed results); and
checks each result line's schema, that no operation failed, that the traced
and untraced runs of one seed give the same digest, and that unknown input
exits non-zero without a result line.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}, workload
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"], workload
        names.append(workload["name"])
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}, metric
        assert 0 < metric["bound"] <= 0.25, metric
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}, metric
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher"), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names)), "metric and workload names must be unique"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(build_dir, *args):
    command = [sys.executable, os.path.join(BENCH, "run.py"), "--build-dir", build_dir,
               *args]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    for workload in [w["name"] for w in spec["workloads"]]:
        digests = set()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, stderr = run(args.build_dir, "--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace), "--smoke")
            label = f"{workload} --trace {trace}"
            assert code == 0, f"{label}: exit {code}\n{stderr}"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
            assert result["correct"] is True, label
            assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
            assert result["failed"] == 0, f"{label}: {result['failed']} failed"
            declared = {m["name"]: m["unit"] for m in spec[section]}
            assert set(result["metrics"]) == set(declared), label
            for name, entry in result["metrics"].items():
                assert set(entry) == {"value", "unit"}, (label, name)
                assert entry["unit"] == declared[name], (label, name)
                assert math.isfinite(entry["value"]), (label, name)
            digests.add(json.loads(lines[-2])["digest"])
        assert len(digests) == 1, f"{workload}: traced and untraced digests differ: {digests}"
        print(f"ok {workload}")

    code, lines, _ = run(args.build_dir, "--workload", "no_such_workload", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert code != 0 and not lines, "an unknown workload must fail without a result"
    print("ok unknown workload rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
