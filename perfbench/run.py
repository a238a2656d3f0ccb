#!/usr/bin/env python3
"""Builds the archive benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

The EASIA libraries are compiled from ./src together with archbench in
perfbench/ into .bench_build/perfbench/; later runs rebuild only what
changed. Scratch files go to .bench_build/last-run/, emptied at the start
of every run: the ingest WAL (removed afterwards) and the traced run's
spans (kept, one JSON object per span). The benchmark's standard output
is passed through; its last line is the JSON result. Exits non-zero if the
build fails or the benchmark does (a failed check included).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no EASIA sources at src/\n")
        return False
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["browse", "ingest", "postprocess"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    out = os.path.join(ROOT, ".bench_build", "last-run")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        result = subprocess.run(
            [os.path.join(BUILD, "archbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", out])
    finally:
        for name in os.listdir(out):
            if name.endswith(".wal"):
                os.remove(os.path.join(out, name))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
