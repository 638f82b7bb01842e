#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload scale-set|network-t1|daemon \
        --seed N --seconds S --trace 0|1 [--strict]

The first run configures and builds perfbench/ (the library sources under
src/ plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Scratch inputs and outputs live
under the build directory and are removed by the benchmark after the run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scale-set", "network-t1", "daemon")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for command in (configure,
                    ["cmake", "--build", build_dir, "-j", jobs]):
        subprocess.run(command, check=True, stdout=sys.stderr,
                       stderr=sys.stderr)
    return os.path.join(build_dir, "confanon_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any file or request fails a "
                        "correctness check")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline",
                                       "pipeline.h")):
        print("perfbench: library sources not found under "
              + os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--strict", str(int(args.strict)),
               "--work-dir", os.path.join(build_dir, "work")]
    if args.trace:
        trace_dir = os.path.join(build_dir, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            trace_dir, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
