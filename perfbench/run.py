#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this source tree and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles the
library and the benchmark into .bench_build/ (a few minutes); later calls
only rebuild what changed. The benchmark's last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics, or the per-layer metrics with --trace 1.

Exits non-zero when a correctness check fails, and non-zero without a
result line when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_release", "service_counts", "scan_10m")
# Everything a run must finish in, build included, stays under the
# 180 s a run may take once built.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "ireduct_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed (full log: {log_path})")
    return os.path.join(build_dir, "ireduct_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}; run from a full checkout", 2)

    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    binary = build(build_dir)
    state = os.path.join(build_dir, "state")
    os.makedirs(state, exist_ok=True)
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--data-dir", os.path.join(state, "data"),
        "--work-dir", os.path.join(state, "run"),
        "--out", os.path.join(state, "results.json"),
    ]
    if args.trace:
        # One trace per workload (a few MB each); the latest run wins.
        command += ["--trace", os.path.join(state, f"trace-{args.workload}.json")]
    sys.stdout.flush()
    try:
        # subprocess.run kills and reaps the benchmark on timeout.
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
