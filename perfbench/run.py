#!/usr/bin/env python3
"""Builds and runs the SCube benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload build|explore|export|scatter \
        --seed N --seconds S --trace 0|1

The benchmark binary is built from the checkout's own sources (the
repository's libraries under src/ plus perfbench/src) into .bench_build/
with CMake, then run with the same arguments. Its last stdout line is the
result object. A traced run also writes its spans to
.bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "scube_perfbench")
WORKLOADS = ("build", "explore", "export", "scatter")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "scube_perfbench", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", os.path.join("src", "query")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail("no SCube sources at %s (missing %s)" % (ROOT, needed))
    if not build():
        return fail("build failed")

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
