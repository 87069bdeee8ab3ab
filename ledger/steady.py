#!/usr/bin/env python3
"""Checks that the ledger is steady enough for its own bounds.

Runs every workload of BENCHMARK.json `--runs` times (default 10), each
with another seed, exactly as the benchmark driver does, and prints for
each end-to-end metric the median and the distance between the first and
third quartile as a share of the median. A spread above the metric's
bound would make the driver refuse the benchmark; the aim is a third of
the bound. Run from the repository root, after a build:

    python3 ledger/steady.py [--runs 10] [--first-seed 1] [--workload NAME]
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
    parser.add_argument("--workload", action="append")
    parser.add_argument("--values", action="store_true", help="also print every run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(workload)
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            mark = ""
            if name != "setup_s":
                worst = max(worst, spread / bound)
                mark = "  > bound" if spread > bound else "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<22} median {median:>14.4f}  spread {spread:6.3f}  bound {bound:.2f}{mark}")
            if args.values:
                print("    " + " ".join(f"{v:.4g}" for v in values[name]))
    print(f"worst spread is {worst:.2f} of its bound")


if __name__ == "__main__":
    main()
