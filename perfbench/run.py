#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

Run from the root of an ecms checkout:

  python3 perfbench/run.py --workload array16 --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest          # the benchmark's own tests
  python3 perfbench/run.py --make-reference    # regenerate the 5 ps map

Each run first builds (incrementally) the library and the perfbench program into
.bench_build/perfbench, then runs it and checks that its last output
line carries exactly the metrics BENCHMARK.json names for the run mode. Build
output goes to stderr; the program's output goes to stdout, and its last line
is the result JSON. The exit code is non-zero when the build fails, a
correctness check fails, or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE = os.path.join("perfbench", "reference", "array16_5ps.txt")
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def build():
    """Configures once, then builds incrementally; False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
        if subprocess.run(cfg, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", BUILD_JOBS,
           "--target", "perfbench", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode == 0


def expected_metrics(bench, trace):
    """{name: unit} of the metrics a run in this mode must print."""
    group = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def validate(result, bench, trace):
    """Problems with a result object against BENCHMARK.json (empty: ok)."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    keys = set(result)
    if keys != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(keys))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool):
            problems.append("%s is not a whole number" % k)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = expected_metrics(bench, trace)
    got = result["metrics"]
    if not isinstance(got, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(want) - set(got)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(got) - set(want)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(got)):
        m = got[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("metric %s is not {value, unit}" % name)
            continue
        if m["unit"] != want[name]:
            problems.append("metric %s has unit %r, BENCHMARK.json says %r"
                            % (name, m["unit"], want[name]))
        if not isinstance(m["value"], (int, float)) or isinstance(
                m["value"], bool):
            problems.append("metric %s has a non-numeric value" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if args.selftest:
        rc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                            cwd=ROOT).returncode
        rc2 = subprocess.run([sys.executable,
                              os.path.join(HERE, "tests", "test_schema.py")],
                             cwd=ROOT).returncode
        return rc or rc2
    if args.make_reference:
        return subprocess.run([os.path.join(BUILD, "perfbench"),
                               "--make-reference", REFERENCE,
                               "--jobs", BUILD_JOBS], cwd=ROOT).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    with open(BENCHMARK) as f:
        bench = json.load(f)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 2
    problems = validate(result, bench, args.trace == 1)
    if problems:
        for p in problems:
            print("perfbench: result does not match BENCHMARK.json: " + p,
                  file=sys.stderr)
        return 3
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
