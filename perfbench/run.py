#!/usr/bin/env python3
"""Build the skelex benchmark driver from source, then run it.

    python3 perfbench/run.py --workload window_large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The driver and the skelex_served daemon are
built with CMake into .bench_build/ (configured on first use, rebuilt
incrementally after). Build output goes to stderr, so the driver's JSON
result stays the last line of stdout. Exits non-zero, printing no result,
when the build fails (for instance when ../src is missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(1)


def main():
    build()
    driver = os.path.join(BUILD, "perfbench")
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out-dir", BUILD]
    sys.stdout.flush()
    os.execv(driver, [driver] + args)


if __name__ == "__main__":
    main()
