#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage, from the repository root:

    python3 perfbench/spread.py [--workload NAME ...] [--seeds 1-10]
                                [--seconds S] [--out FILE]

Runs perfbench/run.py once per seed on each workload (untraced) and, for
every end-to-end metric of BENCHMARK.json, prints the median of the runs
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)). A spread above a third of the
metric's bound is flagged. --out appends every raw result line to FILE
(JSON lines).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    status = 0
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in parse_seeds(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            if args.out:
                with open(args.out, "a") as handle:
                    handle.write(json.dumps({"workload": workload,
                                             "seed": seed, **result}) + "\n")
            failed += result["failed"]
            attempted += result["attempted"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: failed {failed} of {attempted} attempted")
        for metric in spec["end_to_end"]:
            samples = values[metric["name"]]
            if len(samples) < 2:
                continue
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            share = (q3 - q1) / median
            steady = share <= metric["bound"] / 3
            print(f"  {metric['name']:<24} median {median:14.6g} "
                  f"spread {share:7.2%} bound {metric['bound']:.0%} "
                  f"{'ok' if steady else 'WIDE'}")
            if not steady:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
