#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

  python3 perfbench/test_perfbench.py

Builds the driver on first use (as run.py does). Checks that bad input is
rejected with exit 2, that a run writes only under the output path it is
given, and that per-layer counts and result digests repeat for one seed.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True  # leave no __pycache__ in the tree
sys.path.insert(0, HERE)
import run  # noqa: E402

TEST_OUT = os.path.join(run.ROOT, ".bench_build", "perfbench-test-out")
# Per-layer metrics that are pure functions of workload and seed.
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("core.bwd_precision", "traffic.shed_frac",
                "exp.attempts_per_cell")

BAD_ARGS = [
    ["--seconds", "inf"],
    ["--seconds", "nan"],
    ["--seconds", "0"],
    ["--seconds", "-1"],
    ["--seconds", "1e999"],
    ["--seconds", "abc"],
    ["--seed", "-1"],
    ["--seed", "1.5"],
    ["--workload", "bogus"],
    ["--trace", "2"],
    ["--stray", "1"],
]


def with_defaults(override):
    args = {"--workload": "sync_suite", "--seed": "1", "--seconds": "1",
            "--trace": "0"}
    extra = []
    for flag, value in zip(override[::2], override[1::2]):
        if flag in args:
            args[flag] = value
        else:
            extra += [flag, value]
    return [x for kv in args.items() for x in kv] + extra


def tree_snapshot():
    """(path, size, mtime) of every file outside the build tree and .git."""
    snap = []
    for dirpath, dirnames, filenames in os.walk(run.ROOT):
        dirnames[:] = [d for d in dirnames if d not in (".bench_build", ".git")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.lstat(path)
            snap.append((os.path.relpath(path, run.ROOT), st.st_size,
                         st.st_mtime_ns))
    return sorted(snap)


def git_status():
    if shutil.which("git") is None or not os.path.isdir(
            os.path.join(run.ROOT, ".git")):
        return None
    return subprocess.run(["git", "status", "--porcelain"], cwd=run.ROOT,
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--out", TEST_OUT],
        cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=run.BUILD_TIMEOUT_S + run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    digest = [l for l in lines if l.startswith("digest ")]
    return proc.returncode, json.loads(lines[-1]), digest


def exact(metrics):
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] in EXACT_UNITS or k in EXACT_RATIOS}


class InputTest(unittest.TestCase):
    def test_run_py_rejects_bad_input(self):
        for bad in BAD_ARGS:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 *with_defaults(bad)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "", bad)

    def test_driver_rejects_bad_input(self):
        self.assertTrue(run.build())
        cases = [with_defaults(bad) for bad in BAD_ARGS]
        cases.append(with_defaults(["--trace", "1"]))  # traced without --out
        cases.append(with_defaults([]) + ["--seconds"])  # flag without value
        for bad in cases:
            proc = subprocess.run([run.DRIVER, *bad],
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertEqual(proc.stdout, "", bad)


class RunTest(unittest.TestCase):
    def test_writes_only_to_out_and_repeats(self):
        self.assertTrue(run.build())
        shutil.rmtree(TEST_OUT, ignore_errors=True)
        before, status = tree_snapshot(), git_status()
        first = bench("sync_suite", 3, 1)
        second = bench("sync_suite", 3, 1)
        self.assertEqual(tree_snapshot(), before)
        self.assertEqual(git_status(), status)
        for rc, result, _ in (first, second):
            self.assertEqual(rc, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
        self.assertEqual(exact(first[1]["metrics"]),
                         exact(second[1]["metrics"]))
        self.assertEqual(first[2], second[2])
        self.assertEqual(sorted(os.listdir(TEST_OUT)),
                         ["sync_suite-seed3.layers.txt",
                          "sync_suite-seed3.spans.jsonl"])
        self.assertGreater(first[1]["metrics"]["futex.wakes"]["value"], 0)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(list(first[1]["metrics"]),
                         [m["name"] for m in spec["per_layer"]])

    def test_bypass_workload_shows_no_bwd_work(self):
        self.assertTrue(run.build())
        rc, van, _ = bench("serve_vanilla", 1, 1)
        self.assertEqual(rc, 0)
        rc, opt, _ = bench("serve_optimized_obs", 1, 1)
        self.assertEqual(rc, 0)
        fires = "core.bwd_timer_fires"
        self.assertEqual(van["metrics"][fires]["value"], 0)
        self.assertGreater(opt["metrics"][fires]["value"], 0)
        for result in (van, opt):
            self.assertEqual(result["metrics"]["futex.wakes"]["value"], 0)
            self.assertGreater(result["metrics"]["traffic.completed"]["value"],
                               0)

    def test_untraced_run_prints_end_to_end_metrics(self):
        self.assertTrue(run.build())
        shutil.rmtree(TEST_OUT, ignore_errors=True)
        rc, result, _ = bench("serve_vanilla", 2, 0)
        self.assertEqual(rc, 0)
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)
        self.assertFalse(os.path.exists(TEST_OUT))


if __name__ == "__main__":
    unittest.main()
