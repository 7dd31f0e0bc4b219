#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and quartiles.

    python3 ecasbench/spread.py [--runs 10] [--seconds S] [--trace 0|1]
                                [--first-seed 1] [workload ...]

Run from the root of a checkout. Each run takes the next seed. With no
workload named, every workload of BENCHMARK.json runs. For each metric it
prints the median, the first and third quartiles (statistics.quantiles
with n=4) and the spread, (Q3 - Q1) / median, beside the metric's bound.
It also prints the share of failed operations and the runs whose checks
failed. Raw results are appended, one JSON line per run, to
.bench_build/spread.jsonl.
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
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    log = os.path.join(ROOT, ".bench_build", "spread.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)

    for workload in workloads:
        values, failed, attempted, wrong = {}, 0, 0, []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (workload, seed, out.returncode))
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with open(log, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            if not result["correct"]:
                wrong.append(seed)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("== %s: %d runs, failed %d of %d operations, checks failed on "
              "seeds %s" % (workload, args.runs, failed, attempted, wrong or "none"))
        print("%-40s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                               "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(name)
            print("%-40s %14.6g %14.6g %14.6g %8.4f %6s" % (
                name, med, q1, q3, spread, "" if bound is None else bound))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
