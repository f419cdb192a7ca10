#!/usr/bin/env python3
"""Builds and runs the RLCut end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload batch_tw --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and compiles the
library and the benchmark into .bench_build/ (or $CARGO_TARGET_DIR) as an
optimized build; later runs only rebuild what changed. The last line of
standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_tw", "stream_grow", "ooc_mmap")
BUILD_JOBS = "4"


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build(build_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
                  "--target", "rlcut_e2e"])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT)
            except OSError as err:
                print(f"build: cannot run {step[0]}: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write("".join(failed.readlines()[-30:]))
                print(f"build: '{' '.join(step)}' failed", file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_root()
    build_dir = os.path.join(out_dir, "e2ebench")
    work_dir = os.path.join(out_dir, "e2e")
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "rlcut_e2e")
    common = [binary, "--workload", args.workload, "--seed", str(args.seed),
              "--work_dir", work_dir]

    # File inputs are made afresh by a process of their own, so that
    # their memory never shows in a measured run's peak RSS.
    prepared = subprocess.run(common + ["--prepare"], cwd=ROOT)
    if prepared.returncode != 0:
        return prepared.returncode
    sys.stdout.flush()
    measured = subprocess.run(common + ["--seconds", str(args.seconds),
                                        "--trace", str(args.trace)], cwd=ROOT)
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main())
