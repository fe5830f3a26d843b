#!/usr/bin/env python3
"""End-to-end benchmark of the simulator's host cost.

Builds perfbench_driver (the simulator library from the repository's src/
tree plus driver.cc) under .bench_build/ at the repository root, runs one
workload, compares the digest of the simulated results with the value
recorded in digests.json, and relays the driver's output. The last line of
standard output is the JSON result.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
                           --trace 0|1 [--out <dir>]

Exit status: the driver's (0 = every check passed, 1 = a check failed),
2 for bad arguments, 1 when the build fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("serve_vanilla", "serve_optimized_obs", "sync_suite")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def positive_seconds(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value <= 0 or value > 3600:
        raise argparse.ArgumentTypeError(
            f"must be finite, positive and at most 3600: {text!r}")
    return value


def seed(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer: {text!r}")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Host cost of the simulator, end to end and per layer.",
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed)
    p.add_argument("--seconds", required=True, type=positive_seconds)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--out", default=DEFAULT_OUT,
                   help="directory for the traced run's span file and layer "
                        "table (default: .bench_build/perfbench-out)")
    return p.parse_args(argv)


def build():
    """Configures once, then builds incrementally. Output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", HERE, "-B", BUILD_DIR, *generator])
    steps.append([cmake, "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "--parallel", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def check_digest(workload, seed_value, stdout):
    """Reports (never fails on) a digest that differs from the recorded one:
    a model-equivalent change may move RNG streams on purpose."""
    got = None
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "digest" and parts[1] == workload:
            got = parts[3]
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)["workloads"].get(workload, {}).get(
            str(seed_value))
    if got is None:
        print("perfbench: driver printed no digest", file=sys.stderr)
    elif recorded is None:
        print(f"perfbench: digest {got}: none recorded for seed "
              f"{seed_value}", file=sys.stderr)
    elif recorded == got:
        print(f"perfbench: digest {got} matches the recorded value",
              file=sys.stderr)
    else:
        print(f"perfbench: digest MISMATCH for seed {seed_value}: recorded "
              f"{recorded}, got {got} (reported, not counted as a failure)",
              file=sys.stderr)


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", args.out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 1
    check_digest(args.workload, args.seed, proc.stdout)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
