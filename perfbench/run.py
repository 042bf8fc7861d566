#!/usr/bin/env python3
"""StableShard benchmark: one named workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--record <file.jsonl>]

Run from the root of a source checkout. It builds the benchmark (CMake, from
the checkout's sources, into $CARGO_TARGET_DIR or .bench_build), runs the
workload for --seconds, checks the outputs, and prints as its last stdout
line one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The line before it is the host stamp. --record appends the
full result (host stamp, digest, metrics) to a JSON-lines file that
compare.py reads. Exit code: 0 when correct, 1 when a check failed, 2 when
the benchmark could not be built or run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for start-up and the final rep.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")


def build(build_dir):
    """Configure once, then build (a no-op when up to date). Build output
    goes to stderr so the result stays the last line of stdout."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed (is this a full source checkout?)")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def schema_errors(spec, trace, metrics):
    """Names or units that differ from BENCHMARK.json for this trace mode."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    errors = [f"metric {name} missing" for name in declared if name not in metrics]
    for name, entry in metrics.items():
        if name not in declared:
            errors.append(f"metric {name} not declared in BENCHMARK.json")
        elif entry["unit"] != declared[name]:
            errors.append(f"metric {name} unit {entry['unit']} != {declared[name]}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"metric {name} value {entry['value']!r} is not a finite number")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small configs: checks the gate and the schema")
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--build-dir", default=os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        help="CMake build directory, relative to the checkout root")
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    binary = build(os.path.join(ROOT, args.build_dir))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    started = time.time()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"benchmark binary exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"benchmark binary printed no JSON result: {lines[-1]!r}")

    errors = list(result["violations"])
    errors += schema_errors(spec, args.trace, result["metrics"])
    if proc.returncode != 0 and not errors:
        errors.append(f"benchmark binary exited {proc.returncode}")
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)

    host = {
        "nproc": os.cpu_count(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "git_rev": git_rev(),
        "configured_workers": result["configured_workers"],
        "effective_workers": result["effective_workers"],
    }
    metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
               for name, entry in result["metrics"].items()}
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "started": started, "host": host,
            "digest": result["digest"], "config": result["config"],
            "instances": result["instances"], "repetitions": result["repetitions"],
            "errors": errors, "metrics": metrics,
        }
        with open(args.record, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"host": host, "digest": result["digest"],
                      "repetitions": result["repetitions"]}, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
