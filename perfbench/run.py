#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig11-matrix --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds libbauvm plus the program into
.bench_build/perfbench (about a minute on 4 CPUs); later runs only
re-check the build. Build output goes to stderr, so the last line of
stdout is the program's JSON result. Outputs, sweep exports and traces
land in .bench_build/out.
"""

import argparse
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "out")
EXPECTED_DIR = os.path.join(ROOT, "perfbench", "expected")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fig11-matrix", "bfs-hyb-large", "mt2-evict")
# A run must end within 180 s of the program starting.
PROGRAM_TIMEOUT_S = 175


def build(env):
    """Configures (once) and builds the program; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode:
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")

    # Compiler and library temporary files stay inside the checkout.
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--expected", EXPECTED_DIR]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: timed out after %.0f s"
              % (time.monotonic() - start), file=sys.stderr)
        return 3
    if code:
        print("perfbench: exited with %d" % code, file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
