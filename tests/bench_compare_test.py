#!/usr/bin/env python3
"""Checks tools/bench_compare.py's per-iteration work-counter gate.

Run: python3 tests/bench_compare_test.py (registered as the ctest test
bench_compare_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "tools", "bench_compare.py")


def record(run, iterations, cpu_ns, counters, real_ns=None):
    return {"schema": "ivm-bench-1", "bench": "t", "run": run,
            "run_type": "iteration", "error": False,
            "iterations": iterations,
            "real_time_ns": cpu_ns if real_ns is None else real_ns,
            "cpu_time_ns": cpu_ns, "time_unit": "ns", "counters": counters}


class BenchCompareCountersTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def compare(self, base, cand, *flags):
        paths = []
        for name, recs in (("base", base), ("cand", cand)):
            path = os.path.join(self.dir.name, name + ".json")
            with open(path, "w", encoding="utf-8") as f:
                for rec in recs:
                    f.write(json.dumps(rec) + "\n")
            paths.append(path)
        proc = subprocess.run(
            [sys.executable, COMPARE, *flags, *paths],
            capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout + proc.stderr

    def test_equal_work_per_iteration_passes_at_other_iteration_counts(self):
        base = [record("BM_A", 3, 100, {"counting.derivations": 24,
                                        "mutations.committed": 6})]
        cand = [record("BM_A", 7, 100, {"counting.derivations": 56,
                                        "mutations.committed": 14})]
        code, out = self.compare(base, cand, "--counters")
        self.assertEqual(code, 0, out)

    def test_more_work_per_iteration_is_drift(self):
        base = [record("BM_A", 3, 100, {"ho.tuples_scanned": 30})]
        cand = [record("BM_A", 4, 100, {"ho.tuples_scanned": 41})]
        code, out = self.compare(base, cand, "--counters")
        self.assertEqual(code, 1, out)
        self.assertIn("COUNTER DRIFT: BM_A ho.tuples_scanned", out)

    def test_missing_work_counter_is_drift(self):
        base = [record("BM_A", 1, 100, {"dred.rederived": 5})]
        cand = [record("BM_A", 1, 100, {})]
        code, out = self.compare(base, cand, "--counters")
        self.assertEqual(code, 1, out)
        self.assertIn("absent", out)

    def test_one_time_and_constant_counters_are_not_gated(self):
        base = [record("BM_A", 2, 100, {"eval.plan_cache.misses": 4,
                                        "storage.extents_shared": 8,
                                        "batch": 64, "rc.worklist_steps": 16})]
        cand = [record("BM_A", 5, 100, {"eval.plan_cache.misses": 4,
                                        "storage.extents_shared": 9,
                                        "batch": 64, "rc.worklist_steps": 40})]
        code, out = self.compare(base, cand, "--counters")
        self.assertEqual(code, 0, out)

    def test_time_is_reported_not_gated_with_counters(self):
        base = [record("BM_A", 1, 100, {"counting.suppressed": 2})]
        cand = [record("BM_A", 1, 300, {"counting.suppressed": 2})]
        code, out = self.compare(base, cand, "--counters", "--tolerance", "60")
        self.assertEqual(code, 0, out)
        self.assertIn("slower", out)
        code, out = self.compare(base, cand, "--tolerance", "60")
        self.assertEqual(code, 1, out)
        self.assertIn("REGRESSION", out)

    def test_real_time_runs_report_real_time(self):
        base = [record("BM_R/4/real_time", 1, 100, {}, real_ns=1000)]
        cand = [record("BM_R/4/real_time", 1, 900, {}, real_ns=1000)]
        code, out = self.compare(base, cand, "--tolerance", "10")
        self.assertEqual(code, 0, out)
        self.assertIn("1.00x", out)


if __name__ == "__main__":
    unittest.main()
