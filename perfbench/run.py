#!/usr/bin/env python3
"""Builds and runs the NLQ->SQL serving benchmark.

    python3 perfbench/run.py --workload cold|warm --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark (perfbench/src) is compiled together with the repository's
library sources into $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, then run with the given arguments. Build output goes to
stderr; the benchmark's last stdout line is its JSON result. The exit code
is non-zero when the build fails (for example when the library sources are
missing) or when the benchmark's correctness gate fails.

--self-test builds and runs the benchmark's unit tests, then checks that a
deliberately corrupted top-1 answer makes a run fail.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(targets):
    build_dir = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets)
    for step in steps:
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            sys.exit(3)
    return build_dir


def run_benchmark(build_dir, args):
    out_dir = os.path.join(build_root(), "perfbench-out")
    command = [os.path.join(build_dir, "perfbench"), "--out-dir", out_dir] + args
    return subprocess.run(command).returncode


def self_test():
    build_dir = build(["perfbench", "perfbench_test"])
    test = os.path.join(build_dir, "perfbench_test")
    if not os.path.exists(test):
        sys.stderr.write("perfbench: GoogleTest missing, unit tests not built\n")
        return 1
    if subprocess.run([test], cwd=build_dir).returncode != 0:
        return 1
    gate = subprocess.run(
        [os.path.join(build_dir, "perfbench"), "--out-dir",
         os.path.join(build_root(), "perfbench-out"), "--workload", "cold",
         "--seed", "1", "--seconds", "2", "--trace", "0", "--corrupt-top1"],
        stdout=subprocess.PIPE, text=True)
    if gate.returncode == 0:
        sys.stderr.write("perfbench: a corrupted top-1 did not fail the run\n")
        return 1
    last = gate.stdout.strip().splitlines()[-1] if gate.stdout.strip() else "{}"
    result = json.loads(last)
    # Exactly the one corrupted answer must be counted as failed: a run that
    # fails for another reason (say, too few samples for a p99) proves
    # nothing about the gate.
    if result.get("correct") is not False or result.get("failed") != 1:
        sys.stderr.write("perfbench: corrupted run did not fail through the "
                         "correctness gate: %s\n" % last)
        return 1
    print("self-test passed: unit tests green, corrupted top-1 fails the gate")
    return 0


def main():
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    build_dir = build(["perfbench"])
    return run_benchmark(build_dir, args)


if __name__ == "__main__":
    sys.exit(main())
