#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the root of a statsched checkout:

    python3 perfbench/run.py --workload paper24 --seed 1 --seconds 30 --trace 0

Builds perfbench/ (Release, into .bench_build/) from the checkout's
sources, then runs campaign_bench, whose last stdout line is the JSON
result. The default seed is 1; seed 13 is held out for confirming a
claimed gain (see perfbench/BENCHMARK.md). Exits non-zero, without a
result, when the sources or the build are missing or broken.
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
DEADLINE_S = 175
WORKLOADS = ("paper24", "paper6", "durable24")
DEFAULT_SEED = 1


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "campaign.hh")):
        fail("run from the root of a statsched checkout (src/ not found)")
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "campaign_bench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(cmake_dir, "campaign_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    started = time.monotonic()
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--golden", os.path.join(HERE, "golden.tsv"),
               "--workdir", os.path.join(BUILD, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        fail("campaign_bench did not finish in time")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
