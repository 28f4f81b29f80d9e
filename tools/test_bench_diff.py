#!/usr/bin/env python3
"""Unit tests for tools/bench_diff.py (stdlib unittest only).

Drives the tool exactly the way the CI bench-smoke job does — as a
subprocess over JSON record files — and pins down its contract:
regression flagging and thresholds, the --strict exit code, the SIMD
backend-mismatch skip, row matching (new/disappeared/duplicate labels),
and malformed-record rejection.

Run:  python3 tools/test_bench_diff.py
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "bench_diff.py"


def record(bench="sample_sta_block", backend="avx2", rows=None):
    rec = {"bench": bench, "meta": {}, "rows": rows or []}
    if backend is not None:
        rec["meta"]["simd_backend"] = backend
    return rec


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self._tmp.cleanup)
        self.dir = Path(self._tmp.name)

    def write(self, name, rec):
        path = self.dir / name
        path.write_text(json.dumps(rec), encoding="utf-8")
        return path

    def run_diff(self, old, new, *extra):
        return subprocess.run(
            [sys.executable, str(TOOL), str(old), str(new), *extra],
            capture_output=True, text=True)

    def diff(self, old_rows, new_rows, *extra, old_backend="avx2",
             new_backend="avx2"):
        old = self.write("old.json", record(backend=old_backend,
                                            rows=old_rows))
        new = self.write("new.json", record(backend=new_backend,
                                            rows=new_rows))
        return self.run_diff(old, new, *extra)

    # ------------------------------------------------------- flagging

    def test_no_regression_exits_zero(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 10.5}])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("no regressions flagged", r.stdout)
        self.assertNotIn("REGRESSION", r.stdout)

    def test_time_regression_is_flagged_but_not_fatal_by_default(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 20.0}])
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("REGRESSION (slower)", r.stdout)
        self.assertIn("1 regression(s) flagged", r.stdout)

    def test_strict_turns_a_regression_into_exit_one(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 20.0}], "--strict")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION (slower)", r.stdout)

    def test_strict_with_no_regression_still_exits_zero(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 9.0}], "--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_speedup_drop_is_a_regression(self):
        r = self.diff([{"case": "batched", "speedup": 4.0}],
                      [{"case": "batched", "speedup": 2.0}], "--strict")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION (less speedup)", r.stdout)

    def test_threshold_bounds_what_gets_flagged(self):
        # +20% is under the default 25% threshold...
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 12.0}], "--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # ... and over a tightened 10% one.
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 12.0}],
                      "--strict", "--threshold", "0.10")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    def test_info_columns_are_never_flagged(self):
        # Gate counts and similar non-time columns may change arbitrarily.
        r = self.diff([{"circuit": "c432", "gates": 160}],
                      [{"circuit": "c432", "gates": 999}], "--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("REGRESSION", r.stdout)

    def test_columns_in_one_record_only_are_skipped(self):
        # A bench may drop or add a column (batched_ssta dropped
        # batch_1t_ms); only the columns both records share are compared.
        r = self.diff([{"circuit": "c432", "batch_1t_ms": 1.0,
                        "batch_nt_ms": 2.0}],
                      [{"circuit": "c432", "batch_nt_ms": 2.0,
                        "fresh_ms": 99.0}], "--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("batch_1t_ms", r.stdout)
        self.assertNotIn("fresh_ms", r.stdout)
        self.assertIn("c432.batch_nt_ms", r.stdout)

    # ----------------------------------------------- backend mismatch

    def test_backend_mismatch_skips_flagging_even_under_strict(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 99.0}],
                      "--strict", old_backend="scalar", new_backend="avx2")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("SIMD backend mismatch", r.stdout)
        self.assertIn("scalar -> avx2", r.stdout)
        self.assertNotIn("<-- REGRESSION", r.stdout)

    def test_missing_backend_on_one_side_counts_as_mismatch(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 99.0}],
                      "--strict", old_backend=None, new_backend="avx2")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("<unrecorded> -> avx2", r.stdout)

    def test_matching_backends_flag_normally(self):
        r = self.diff([{"circuit": "c432", "total_ms": 10.0}],
                      [{"circuit": "c432", "total_ms": 99.0}],
                      "--strict", old_backend="neon", new_backend="neon")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)

    # ----------------------------------------------------- row matching

    def test_new_and_disappeared_rows_are_reported_not_flagged(self):
        r = self.diff([{"circuit": "gone", "total_ms": 1.0}],
                      [{"circuit": "fresh", "total_ms": 99.0}], "--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("fresh: new row (no baseline)", r.stdout)
        self.assertIn("gone: row disappeared", r.stdout)

    def test_duplicate_row_labels_are_both_diffed(self):
        rows_old = [{"case": "dup", "total_ms": 10.0},
                    {"case": "dup", "total_ms": 10.0}]
        rows_new = [{"case": "dup", "total_ms": 10.0},
                    {"case": "dup", "total_ms": 50.0}]
        r = self.diff(rows_old, rows_new, "--strict")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("dup#2.total_ms", r.stdout)

    # ------------------------------------------------- malformed input

    def test_bench_name_disagreement_is_fatal(self):
        old = self.write("old.json", record(bench="alpha",
                                            rows=[{"case": "x"}]))
        new = self.write("new.json", record(bench="beta",
                                            rows=[{"case": "x"}]))
        r = self.run_diff(old, new)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("disagree on bench name", r.stderr)

    def test_missing_rows_key_is_fatal(self):
        old = self.write("old.json", {"bench": "alpha"})
        new = self.write("new.json", record(rows=[]))
        r = self.run_diff(old, new)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("not a JsonReport record", r.stderr)


if __name__ == "__main__":
    unittest.main()
