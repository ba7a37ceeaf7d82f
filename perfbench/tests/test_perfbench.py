#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/tests/test_perfbench.py

Runs every workload twice at a short length through perfbench/run.py and
checks the result against BENCHMARK.json: every end-to-end metric
present with its unit, accuracy repeating exactly, no failed op.
A traced run must report every per-layer metric. Negative cases: a
corrupted expected-label list must make the output check fail, and a
directory holding only BENCHMARK.json and perfbench/ must exit non-zero
without printing a result. Takes a few minutes (it builds on first use).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
WORKLOADS = ("train-mnist", "infer-mnist")
SHORT_SECONDS = 2
SEED = 3


def run(workload, trace=0, extra=(), cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SHORT_SECONDS),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


class BenchmarkSelfTest(unittest.TestCase):
    def check_result(self, workload, code, result):
        self.assertEqual(code, 0, f"{workload} exited {code}")
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(E2E_UNITS))
        for name, metric in metrics.items():
            self.assertEqual(metric["unit"], E2E_UNITS[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
            self.assertNotEqual(metric["value"], 0, name)

    def test_workloads_twice_with_repeatable_accuracy(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first_code, first = run(workload)
                second_code, second = run(workload)
                self.check_result(workload, first_code, first)
                self.check_result(workload, second_code, second)
                self.assertEqual(first["metrics"]["accuracy"]["value"],
                                 second["metrics"]["accuracy"]["value"])

    def test_traced_run_reports_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), set(LAYER_UNITS))
                for name, metric in result["metrics"].items():
                    self.assertEqual(metric["unit"], LAYER_UNITS[name], name)

    def test_corrupted_expected_labels_fail_the_check(self):
        # The traced run covers the serve session's check on served labels.
        for workload, trace in (("train-mnist", 0), ("infer-mnist", 0),
                                ("train-mnist", 1)):
            with self.subTest(workload=workload, trace=trace):
                code, result = run(workload, trace=trace,
                                   extra=("--corrupt-check",))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])

    def test_without_sources_exits_nonzero_and_prints_nothing(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "train-mnist", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                check=False, env={"PATH": "/usr/bin:/bin"})
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
