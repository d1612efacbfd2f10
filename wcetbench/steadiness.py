#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs every workload (or the ones named) once per seed, untraced, and
prints a Markdown table with, for each end-to-end metric, the median of
the runs, the spread (first-to-third quartile distance from
`statistics.quantiles(values, n=4)`, as a share of the median), the
metric's bound, and whether the spread stays under a third of it.

Run from the repository root:

    python3 wcetbench/steadiness.py --runs 10 [--first-seed 1] [workload ...]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"{args.runs} untraced runs per workload, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{bench['run_seconds']} s each.\n")
    print("| workload | metric | median | spread | bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        values = {name: [] for name in bounds}
        failures = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()),
                  file=sys.stderr)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            steady = "yes" if spread < bounds[name] / 3 else "no"
            if name == "setup_s":
                steady += " (not required)"
            print(f"| {workload} | {name} | {med:.4g} | {spread:.4f} | "
                  f"{bounds[name]} | {steady} |")
        print(f"| {workload} | incorrect runs | {failures} of {args.runs} | | | |")


if __name__ == "__main__":
    main()
