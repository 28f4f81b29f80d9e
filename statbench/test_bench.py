#!/usr/bin/env python3
"""Self-tests of the statbench aggregation rules; they run on synthetic
runner records, never on a real workload:

    python3 statbench/test_bench.py
"""
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402
import compare  # noqa: E402


def span(name, t0, t1, parent=-1):
    return {"name": name, "t0_ns": t0, "t1_ns": t1, "parent": parent}


def op(kind, latency, traced=False, digest="d", steal=0.0):
    return {"kind": kind, "latency_s": latency, "traced": traced,
            "digest": digest, "steal_s": steal}


def record(workload, ops, threads=4, checks=(), spans=(), layer=None,
           quality=None, obs=None):
    checks = list(checks)
    return {"workload": workload, "threads": threads,
            "busy_threads": 3 if workload == "service_mix" else threads,
            "setup": [op("setup", 0.5), op("setup", 0.4, steal=0.1)],
            "ops": ops, "layer": layer or {}, "quality": quality or {},
            "checks": checks, "attempted": len(checks),
            "failed": sum(not c["ok"] for c in checks),
            "peak_rss_mb": 100.0, "spans": list(spans), "obs": obs}


def service_record(n_requests):
    ops = []
    for i in range(n_requests):
        kind = ("hit" if i % 10 in (2, 5, 8) else
                "grid_miss" if i % 10 == 0 else "mc_miss")
        ops.append(op(kind, 0.001 * (i + 1)))
    return record("service_mix", ops, threads=1,
                  layer={"local_reference_cpu_s": 3.0,
                         "local_reference_probe_s": [],
                         "mc_dies_per_miss": 2048})


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        xs = list(range(1, 201))
        self.assertEqual(bench.nearest_rank(xs, 95), 190)
        with self.assertRaises(ValueError):
            bench.nearest_rank(list(range(1, 200)), 95)

    def test_median_rank_is_allowed_on_small_samples(self):
        self.assertEqual(bench.nearest_rank(list(range(1, 21)), 50), 10)

    def test_service_p95_reported_only_with_enough_requests(self):
        tally = bench.Tally()
        f = bench.flow_metrics("service_mix", service_record(240), tally)
        self.assertAlmostEqual(f["flow.req_p95_ms"], 228.0)
        with self.assertRaises(ValueError):
            bench.flow_metrics("service_mix", service_record(150), tally)


class StealAdjustment(unittest.TestCase):
    def test_steal_is_shared_over_busy_threads(self):
        self.assertAlmostEqual(bench.adjusted(op("mc", 1.0, steal=0.8), 4),
                               0.8)
        self.assertAlmostEqual(bench.adjusted(op("mc", 1.0, steal=0.2), 1),
                               0.8)

    def test_one_thread_op_is_timed_by_its_cpu_time(self):
        o = dict(op("table2", 1.5, steal=0.2), cpu_s=1.1)
        self.assertAlmostEqual(bench.adjusted(o, 1), 1.1)
        self.assertAlmostEqual(bench.adjusted(o, 4), 1.45)

    def test_tick_larger_than_a_short_op_clamps_at_zero(self):
        self.assertEqual(bench.adjusted(op("hit", 4e-5, steal=0.01), 3), 0.0)

    def test_setup_median_is_adjusted(self):
        rec = record("mc_spatial", [op("mc", 1.0)])
        rec1 = record("mc_spatial", [op("mc", 2.0)], threads=1)
        m = bench.workload_metrics("mc_spatial", {4: rec, 1: rec1},
                                   bench.Tally())
        self.assertAlmostEqual(m["setup_s"], 0.4)  # median of 0.5 and 0.3


class SelfTime(unittest.TestCase):
    def test_children_subtracted_once_and_clipped(self):
        spans = [span("opt.optimize", 0, 100),
                 span("sta.grid", 10, 30, 0),
                 span("sta.grid", 20, 50, 0),    # overlaps its sibling
                 span("sta.grid", 90, 120, 0),   # runs past the parent
                 span("flow.table2", 200, 300)]
        self.assertEqual(bench.self_times(spans), [50, 20, 30, 30, 100])

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [span("flow.table3", 0, 100),
                 span("opt.optimize", 0, 80, 0),
                 span("sta.grid", 10, 20, 1)]
        self.assertEqual(bench.self_times(spans), [20, 70, 10])
        table = bench.span_table(spans)
        self.assertAlmostEqual(table["opt.optimize"]["total_s"], 80e-9)
        self.assertAlmostEqual(table["opt.optimize"]["self_s"], 70e-9)


class FailureCounting(unittest.TestCase):
    def test_failed_checks_count_against_attempted(self):
        tally = bench.Tally()
        rec = record("mc_spatial", [op("mc", 1.0)] * 3,
                     checks=[{"name": "a", "ok": True, "detail": ""},
                             {"name": "b", "ok": False, "detail": "off"}])
        tally.add_record(rec)
        self.assertEqual((tally.attempted, tally.failed), (5, 1))
        tally.check("extra", True)
        self.assertAlmostEqual(tally.fail_frac, 1 / 6)
        line = bench.result_line(tally, {"ok_frac": 1 - tally.fail_frac},
                                 [{"name": "ok_frac", "unit": "ratio"}])
        self.assertFalse(line["correct"])
        self.assertEqual(line["failed"], 1)

    def test_thread_invariance_compares_digests(self):
        rec_n = record("mc_spatial", [op("mc", 1, digest="x"),
                                      op("mc", 1, digest="y"),
                                      op("mc", 1, digest="z")])
        rec_1 = record("mc_spatial", [op("mc", 2, digest="x"),
                                      op("mc", 2, digest="q")], threads=1)
        tally = bench.Tally()
        bench.check_thread_invariance(tally, rec_n, rec_1)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_every_opt_flow_pass_must_match_the_first(self):
        rec_n = record("opt_flow", [op("table2", 1, digest="a"),
                                    op("table3", 1, digest="b"),
                                    op("table2", 1, digest="a"),
                                    op("table3", 1, digest="c")])
        rec_1 = record("opt_flow", [op("table2", 2, digest="a"),
                                    op("table3", 2, digest="b")], threads=1)
        tally = bench.Tally()
        bench.check_thread_invariance(tally, rec_n, rec_1)
        self.assertEqual((tally.attempted, tally.failed), (4, 1))


class Schema(unittest.TestCase):
    spec = bench.load_spec()

    def opt_records(self):
        ops = [op("table2", 2.0), op("table3", 3.0),
               op("table2", 2.2), op("table3", 3.1, steal=0.3)]
        q = {"t2_yield_pct": 87.4, "t3_area_pct": 100.1}
        return {4: record("opt_flow", ops[:2], quality=q),
                1: record("opt_flow", ops, threads=1, quality=q)}

    def test_end_to_end_line_matches_spec(self):
        tally = bench.Tally()
        recs = self.opt_records()
        for r in recs.values():
            tally.add_record(r)
        m = bench.workload_metrics("opt_flow", recs, tally)
        # Median 1-thread Table II (2.1) + median Table III (3.0, 3.1 - 0.3).
        self.assertAlmostEqual(m["wall_s"], 5.0)
        self.assertAlmostEqual(m["req_p50_ms"], 2500.0)
        line = bench.result_line(tally, m, self.spec["end_to_end"])
        self.assertEqual(bench.validate_result(line, self.spec["end_to_end"]),
                         [])
        self.assertTrue(all(v["value"] != 0 for v in line["metrics"].values()))

    def test_opt_flow_times_are_scaled_to_the_nominal_host_speed(self):
        recs = self.opt_records()
        probe = 2 * bench.HOST_PROBE_NOMINAL_S
        recs[1]["layer"]["host_probe_s"] = [probe, probe, 3 * probe]
        m = bench.workload_metrics("opt_flow", recs, bench.Tally())
        self.assertAlmostEqual(m["wall_s"], 2.5)  # host ran at half speed
        self.assertAlmostEqual(m["req_per_s"], 0.8)
        self.assertAlmostEqual(m["setup_s"], 0.2)

    def test_per_layer_line_matches_spec(self):
        ops = [op("mc", 1.0), op("mc", 1.2), op("mc", 1.1, traced=True)]
        obs = {"counters": {"sim.pool.batches": 4, "sim.pool.tasks": 16},
               "spans": {"mc.chol": {"count": 2, "total_ns": 5e8}}}
        rec = record("mc_spatial", ops, spans=[span("mc.run", 0, 10**9)],
                     obs=obs, layer={"mc.dies_per_run": 4096,
                                     "mc.engine_build_s": [1.0, 1.2, 1.1]})
        tally = bench.Tally()
        tally.add_record(rec)
        m = bench.layer_metrics("mc_spatial", rec, tally)
        self.assertAlmostEqual(m["mc.chol_s"], 0.5)
        self.assertEqual(m["mc.dies"], 4096)
        self.assertEqual(m["sim.tasks_per_batch"], 4)
        self.assertAlmostEqual(m["mc.engine_build_s"], 1.1)
        self.assertAlmostEqual(m["obs.overhead_frac"], 0.0)
        line = bench.result_line(tally, m, self.spec["per_layer"])
        self.assertEqual(bench.validate_result(line, self.spec["per_layer"]),
                         [])

    def test_schema_rejects_missing_and_misnamed_metrics(self):
        spec = [{"name": "wall_s", "unit": "s"}]
        bad = {"correct": True, "attempted": 1, "failed": 0,
               "metrics": {"wall": {"value": 1.0, "unit": "s"}}}
        self.assertTrue(bench.validate_result(bad, spec))
        bad["metrics"] = {"wall_s": {"value": 1.0, "unit": "ms"}}
        self.assertTrue(bench.validate_result(bad, spec))

    def test_spec_names_and_bounds(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(e2e["setup_s"]["unit"], "s")
        self.assertEqual(e2e["setup_s"]["better"], "lower")
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in e2e.values()))
        names = [m["name"] for m in
                 self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(bench.WORKLOADS))


class Comparison(unittest.TestCase):
    def test_refuses_different_backends(self):
        a = {"simd_backend": "avx512", "simd_max_width": 64}
        self.assertTrue(bench.comparable(a, dict(a))[0])
        ok, diff = bench.comparable(a, {"simd_backend": "avx2",
                                        "simd_max_width": 32})
        self.assertFalse(ok)
        self.assertEqual(diff, ["simd_backend", "simd_max_width"])

    def test_diff_flags_regressions_beyond_bound(self):
        spec = [{"name": "wall_s", "unit": "s", "better": "lower",
                 "bound": 0.1},
                {"name": "req_per_s", "unit": "1/s", "better": "higher",
                 "bound": 0.1}]
        env = {"simd_backend": "avx512", "simd_max_width": 64}
        base = {"env": env, "workloads": {"w": {
            "wall_s": {"median": 1.0}, "req_per_s": {"median": 10.0}}}}
        new = {"env": env, "workloads": {"w": {
            "wall_s": {"median": 1.2}, "req_per_s": {"median": 9.5}}}}
        rows = compare.diff(base, new, spec)
        self.assertEqual([(r[1], r[4]) for r in rows],
                         [("wall_s", True), ("req_per_s", False)])
        with self.assertRaises(SystemExit):
            compare.diff(base, {"env": {"simd_backend": "avx2"},
                                "workloads": {}}, spec)


if __name__ == "__main__":
    unittest.main()
