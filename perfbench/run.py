#!/usr/bin/env python3
"""Builds the benchmark from the checkout it sits in, then runs one workload.

Usage, from the root of a declsched checkout:

    python3 perfbench/run.py --workload http-uniform --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ (CMake, Release). Build output goes to
standard error; standard output carries the benchmark's own lines and, last,
its JSON result. The exit code is the benchmark's: 0 only when every
correctness check passed.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SOURCE = os.path.dirname(os.path.abspath(__file__))
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Configures and builds; returns False when either step fails."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    # Write the build's output back now, not during the measurement, where
    # the writeback would stall the WAL's fsyncs.
    os.sync()
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check stream determinism instead of measuring")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out = os.path.join(BUILD, "out")
    if args.selftest:
        command = [BINARY, "--selftest", "--out", out]
    else:
        command = [BINARY, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace",
                   str(args.trace), "--out", out]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
