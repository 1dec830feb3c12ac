#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Builds e2ebench/ (the simulator's libraries plus the benchmark) in
Release under $CARGO_TARGET_DIR, default .bench_build, then runs one
workload. The last line of stdout is the benchmark's JSON result.
Build output goes to stderr. Everything the run writes (sockets,
result caches, spools, the traced run's Chrome trace) stays under the
build root; the per-run scratch directory is removed at exit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Whole run budget is 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", "4"],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the tests of the benchmark's checks")
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "e2ebench")
    try:
        if args.self_test:
            test = build(build_dir, "e2ebench_checks_test")
            return subprocess.run([os.path.abspath(test)],
                                  cwd=build_dir).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        binary = build(build_dir, "e2ebench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"e2ebench: build failed: {e}", file=sys.stderr)
        return 2

    work = os.path.join(build_dir, f"run-{os.getpid()}")
    trace = os.path.join(build_dir, "traces",
                         f"{args.workload}-seed{args.seed}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", work, "--trace-file", trace]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it.
        print("e2ebench: run exceeded its time limit", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
