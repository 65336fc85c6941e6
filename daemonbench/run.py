#!/usr/bin/env python3
"""Builds and runs the revtr_serverd benchmark (daemon_bench.cpp).

    python3 daemonbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
package in $CARGO_TARGET_DIR (default .bench_build) from the checkout's own
sources; later runs reuse the build. Build output goes to stderr so the last
line of stdout stays the benchmark's JSON result.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("hot_zipf", "cold_pairs", "open_mixed", "agents_cold")
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print(f"daemonbench: no sources under {root / 'src'}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = target / "daemonbench"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "daemon_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("daemonbench: build failed", file=sys.stderr)
            return 1

    # The daemon's AF_UNIX socket path must stay short: pass the output
    # directory relative to the checkout root, where the benchmark runs.
    out_dir = os.path.relpath(target, root)
    command = [str(build / "daemon_bench"), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--out-dir={out_dir}"]
    try:
        done = subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("daemonbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
