#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ps_sweep --seed 1 --seconds 15 --trace 0

The simulator libraries and the benchmark binary are compiled with CMake
into .bench_build/ (an up-to-date tree rebuilds in well under a second), then
the binary runs with the given arguments. Build output goes to stderr, so the
last line on stdout is the binary's JSON result. Workloads, metrics and the
per-layer ledger are described in perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
# The benchmark keeps every run well inside this; it only guards against a
# wedged process.
RUN_TIMEOUT_S = 175


def build():
    generated = any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in ("build.ninja", "Makefile"))
    if not generated:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"], stdout=sys.stderr,
                   stderr=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
