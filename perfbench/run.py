#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <audit|serve_hot> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
`fairbench` (the library plus perfbench/*.cc, Release) under the directory
named by CARGO_TARGET_DIR, or `.bench_build` when unset; later runs only
rebuild what changed. Build output goes to stderr. The benchmark's own
output is passed through unchanged: every metric with its unit, a host
record, and as the last line one JSON object with "correct", "attempted",
"failed" and "metrics" (end-to-end metrics, or per-layer ones with
--trace 1). The exit status is the benchmark's: non-zero when the build
fails or an answer disagrees with its oracle.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("audit", "serve_hot")
RUN_TIMEOUT_S = 175


def build(source_dir, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would skip configuring next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    return subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fairbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "out")
    os.makedirs(out_dir, exist_ok=True)
    if not build(source_dir, build_dir):
        print("build failed", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "fairbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir]
    sys.stdout.flush()
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print("benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
