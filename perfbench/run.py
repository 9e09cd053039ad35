#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to .bench_build/ at the root of the checkout and is reused by
later runs. Build output goes to stderr; the driver's stdout, whose last line
is the JSON result, passes through unchanged.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    driver = [os.path.join(BUILD, "perfbench")] + sys.argv[1:]
    return subprocess.run(driver, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
