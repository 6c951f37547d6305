#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --selftest [--seed N]

The first call configures and builds the Gadget libraries plus the perfbench
binary (Release) under .bench_build/perfbench; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Scratch stores, span files and per-run result files
go to .bench_out/.
"""
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    os.makedirs(BUILD, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    os.chdir(ROOT)
    # Replace this process with the benchmark: its exit code and stdout are
    # the run's, and nothing is left running behind it.
    os.execv(BINARY, [BINARY, "--out", OUT] + sys.argv[1:])


if __name__ == "__main__":
    main()
