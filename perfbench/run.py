#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload wide_v3 --seed 20040426 --seconds 20 --trace 0

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (Release),
builds the perfbench executable from the engine sources in src/, and runs
it with the given arguments. The last line of stdout is the benchmark's
JSON result; the exit code is non-zero when the build or any check fails.
A --trace 1 run writes its spans to .bench_build/spans/<workload>-<seed>.jsonl.

Other flags (--record, --scenario-digest, --reference) pass through to the
executable; see perfbench.cpp.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
EXE = os.path.join(BUILD_DIR, "perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.txt")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main(argv):
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args(argv)
    build()
    args = list(argv)
    if "--reference" not in args:
        args += ["--reference", REFERENCE]
    if known.trace == "1":
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans = os.path.join(SPANS_DIR, f"{known.workload}-{known.seed}.jsonl")
        args += ["--spans", spans]
    return subprocess.run([EXE] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
