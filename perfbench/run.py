#!/usr/bin/env python3
"""Builds the pitract benchmark from source and runs one workload.

Run from the root of a pitract checkout:

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --selftest

The build goes to .bench_build/perfbench (Release, configured once, rebuilt
incrementally on every run). Workload scratch files (churn's spill
directory, traced runs' span logs) go to .bench_build/perfbench-run. The
last line of standard output is the result JSON; build output goes to
standard error. Exits non-zero without a result line when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ["warm_read", "open_mixed", "read_write", "churn"]
# A run measures for --seconds plus set-up and must end within 180 s.
RUN_TIMEOUT_S = 175


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"perfbench: cannot run {step[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    # The ceiling keeps git from searching (or reporting) an enclosing
    # repository: only this checkout's own history counts.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 2
        test = os.path.join(BUILD_DIR, "perfbench_test")
        return subprocess.run([test]).returncode
    if args.workload is None:
        parser.error("--workload is required")
    if not build("pitract_bench"):
        return 2
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "pitract_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", SCRATCH_DIR, "--commit", commit_id()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
