#!/usr/bin/env python3
"""Builds the ecas benchmark from source and runs one workload.

    python3 ecasbench/run.py --workload paper-suite --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
ecasbench/ (which compiles ../src in Release) into .bench_build/ecasbench;
later runs only re-check the build. Each run gets a fresh temporary
directory under .bench_build/runs, removed when the run ends. A traced run
writes its spans to .bench_build/traces/<workload>-seed<N>.json.

The last line of standard output is the benchmark's JSON result. Build
output goes to standard error. The exit code is non-zero, with no result
printed, when the build or the run fails.

    python3 ecasbench/run.py --self-test

builds and runs the correctness checks' own tests instead.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "ecasbench")
RUN_TIMEOUT_S = 170


def build(target):
    """Configures once, then builds target; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "--parallel", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs cmd to completion (killed past the timeout); returns its result."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("ecasbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "ecasbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not build("ecasbench"):
        return 1

    runs = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=args.workload + "-", dir=runs)
    cmd = [os.path.join(BUILD, "ecasbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-dir", tmp]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        result = run(cmd)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None or result.returncode != 0:
        return 1
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
