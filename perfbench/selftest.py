#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py [-v]

Runs every workload at smoke size (--tiny), untraced and traced, and checks
that each run passes its correctness checks and prints exactly the metrics
BENCHMARK.json names. Then checks that the checks bite: a wrong expected
confusion matrix or digest must fail the study, and a directory holding only
BENCHMARK.json and the benchmark's files must fail without a result. Run
from the root of a checkout; the first test builds the benchmark.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, *extra, trace=0, cwd=ROOT):
    """Runs run.py; returns (exit code, parsed last stdout line or None)."""
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        code, result = run(workload, "--tiny", trace=trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        defs = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in defs])
        for m in defs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            if not trace:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_workloads_pass_their_checks(self):
        for w in BENCH["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)


class ChecksBiteTest(unittest.TestCase):
    def test_wrong_confusion_matrix_fails(self):
        code, result = run("study_us_broadband", "--tiny",
                           "--expect-confusion", "214,1,24,3986")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_wrong_digest_fails(self):
        code, result = run("study_us_broadband", "--tiny",
                           "--expect-digest", "0000000000000000")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_bare_benchmark_directory_fails(self):
        bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run("serve_query", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
