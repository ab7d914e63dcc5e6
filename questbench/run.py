#!/usr/bin/env python3
"""quest-bench: build quest from source and run one benchmark workload.

    python3 questbench/run.py --workload small-hot --seed 1 --seconds 10 --trace 0

Run from the root of a quest checkout. The first run configures and
builds a Release tree (the quest libraries, quest_serve, quest_router,
and the benchmark's own load generator and self-tests) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to stderr. The self-tests run
before every measurement, then quest_bench takes over this process: its
standard output ends with one JSON object of the run's metrics, and its
exit status is non-zero on any incorrect answer. Run records and traces
are written under <build dir>/run.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small-hot", "engine-heavy", "fleet-mixed")
TARGETS = ("quest_bench", "quest_bench_selftest", "quest_serve", "quest_router")


def fail(message, code=2):
    sys.stderr.write(f"questbench: {message}\n")
    sys.exit(code)


def run_to_stderr(command):
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail(f"no quest sources next to {HERE}; run from a quest checkout")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        if run_to_stderr(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        ):
            fail("cmake configure failed")
    if run_to_stderr(
        ["cmake", "--build", build_dir, "-j", "4", "--target", *TARGETS]
    ):
        fail("build failed")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    found = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
    )
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    )
    build(build_dir)
    if run_to_stderr([os.path.join(build_dir, "quest_bench_selftest")]):
        fail("benchmark self-tests failed", 1)
    run_dir = os.path.join(build_dir, "run")
    os.makedirs(run_dir, exist_ok=True)
    binary = os.path.join(build_dir, "quest_bench")
    sys.stdout.flush()
    os.execv(
        binary,
        [
            binary,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--bin-dir", os.path.join(build_dir, "quest", "tools"),
            "--run-dir", run_dir,
            "--commit", commit(),
        ],
    )


if __name__ == "__main__":
    main()
