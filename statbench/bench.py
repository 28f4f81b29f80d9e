"""Aggregation rules of the statbench benchmark, kept free of I/O so the
self-tests (test_bench.py) can exercise them without running a workload.

The C++ runner (flows.cpp) prints one raw record per process: setup
samples, one entry per user-level call ("op") with its latency and result
digest, output checks, the benchmark-side span log and, in traced mode,
the obs snapshot.  This module turns those records into the metrics named
in BENCHMARK.json.
"""
import json
import math
import statistics
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WORKLOADS = ("opt_flow", "mc_spatial", "service_mix")
TAIL_MIN_BEYOND = 10
# CPU seconds of one host_probe() call on the reference VM (avx512, 4 vCPUs).
HOST_PROBE_NOMINAL_S = 0.009


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


def nearest_rank(values, pct):
    """The pct-th percentile by nearest rank, refusing a tail that fewer
    than TAIL_MIN_BEYOND samples lie beyond (so p95 needs n >= 200)."""
    xs = sorted(values)
    n = len(xs)
    k = max(1, math.ceil(pct / 100.0 * n))
    if n - k < TAIL_MIN_BEYOND:
        raise ValueError(f"p{pct:g} of {n} samples has only {n - k} beyond "
                         f"it; need {TAIL_MIN_BEYOND}")
    return xs[k - 1]


def covered(intervals):
    """Length of the union of (t0, t1) intervals."""
    total, end = 0, None
    for t0, t1 in sorted(intervals):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def self_times(spans):
    """Per-span self time in ns: duration minus the part of it covered by
    its child spans (children clipped to the parent; overlapping children,
    e.g. parallel grid calls, counted once)."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        t0, t1 = s["t0_ns"], s["t1_ns"]
        cover = [(max(t0, spans[c]["t0_ns"]), min(t1, spans[c]["t1_ns"]))
                 for c in kids[i]]
        out.append((t1 - t0) - covered([c for c in cover if c[1] > c[0]]))
    return out


def span_table(spans):
    """{name: {"calls", "total_s", "self_s"}} over a span log."""
    table = {}
    for s, self_ns in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (s["t1_ns"] - s["t0_ns"]) * 1e-9
        row["self_s"] += self_ns * 1e-9
    return table


class Tally:
    """Operations attempted and failed across every record of one run; a
    failed output check counts as a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add_record(self, rec):
        ops = len(rec["ops"])
        self.attempted += ops + rec["attempted"]
        self.failed += rec["failed"]
        self.failures += [f"{rec['workload']}/{rec['threads']}t: "
                          f"{c['name']}: {c['detail']}"
                          for c in rec["checks"] if not c["ok"]]

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    @property
    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


def untraced(rec):
    return [o for o in rec["ops"] if not o["traced"]]


def adjusted(op, busy):
    """Time of an op with the host's interference taken out.  An op that
    keeps one thread busy is timed by the CPU time its process spent on it:
    the kernel leaves out the steal and the time other tasks held the CPU,
    which /proc/stat's VM-wide steal cannot attribute to one thread.  An op
    on several threads is its wall minus the steal the VM reported
    meanwhile, shared over the `busy` threads.  On an oversubscribed host
    steal swings raw walls by 2x between runs; with no steal reported this
    is the raw wall."""
    if busy == 1 and "cpu_s" in op:
        return op["cpu_s"]
    return max(0.0, op["latency_s"] - op["steal_s"] / busy)


def adjusted_all(ops, busy):
    return [adjusted(o, busy) for o in ops]


def passes(rec, traced=False, busy=None):
    """opt_flow: wall of each (table2, table3) pair, in order; adjusted for
    steal over `busy` threads when given."""
    ops = [o for o in rec["ops"] if o["traced"] == traced]
    t = [adjusted(o, busy) if busy else o["latency_s"] for o in ops]
    return [t[i] + t[i + 1] for i in range(0, len(t) - 1, 2)]


def setup_busy(rec):
    """Threads a set-up repetition keeps busy: the runner alone, plus the
    fleet's workers on service_mix."""
    return rec["busy_threads"] if rec["workload"] == "service_mix" else 1


def check_thread_invariance(tally, rec_n, rec_1):
    """Every result of the N-thread run equals the 1-thread run's result
    for the same call, bitwise (compared by digest)."""
    ref = {}
    for o in rec_1["ops"]:
        ref.setdefault(o["kind"], []).append(o["digest"])
    seen = {}
    for o in rec_n["ops"]:
        k = seen.get(o["kind"], 0)
        seen[o["kind"]] = k + 1
        if rec_n["workload"] == "opt_flow":
            k = 0  # every pass of a flow computes the same result
        if k < len(ref.get(o["kind"], [])):
            tally.check(f"{o['kind']}_{k}_bitwise_{rec_n['threads']}t_vs_1t",
                        o["digest"] == ref[o["kind"]][k],
                        f"{o['digest']} vs {ref[o['kind']][k]}")


def timed_record(workload, records):
    """The record whose calls the bounded walls come from: the N-thread
    run for mc_spatial; the 1-thread run for opt_flow, whose N-thread flow
    is bound by host vCPU wake-up latency (README.md); the only record for
    service_mix."""
    return records[1] if workload == "opt_flow" else records[max(records)]


def host_speed(samples):
    """Factor that brings times to the reference host speed: the probe's
    nominal time over the median of its `samples`, taken around those
    times (host_probe.cpp); 1 without samples.  The host's speed drifts by
    up to 40% over minutes with its neighbours' load, which steal
    accounting cannot see (the CPU time of a 1-thread call grows with its
    wall) and which the probe, a fixed kernel built apart from the library,
    follows (README.md, "Timing rule").  Per-layer metrics stay raw."""
    return HOST_PROBE_NOMINAL_S / median(samples) if samples else 1.0


def record_speed(rec):
    """host_speed() of a record's timed calls: opt_flow and mc_spatial
    probe the host between them; service_mix only around its in-process
    reference (wall_1t_s)."""
    return host_speed(rec["layer"].get("host_probe_s"))


def workload_metrics(workload, records, tally):
    """End-to-end metrics of one untraced run.  `records` maps thread
    count -> runner record: {N, 1} for opt_flow and mc_spatial, {1} for
    service_mix (whose 1-thread runner hosts the fleet and the in-process
    reference).  Every timing is steal-adjusted (see adjusted()) and scaled
    to the reference host speed where the record probed it (see
    record_speed())."""
    rec = timed_record(workload, records)
    busy = rec["busy_threads"]
    ops = untraced(rec)
    speed = record_speed(rec)
    lat = [t * speed for t in adjusted_all(ops, busy)]
    by_kind = {}
    for o, t in zip(ops, lat):
        by_kind.setdefault(o["kind"], []).append(t)
    # Time of the run's calls from per-kind medians: robust to steal bursts
    # that the adjustment misses.
    robust_total = sum(len(v) * median(v) for v in by_kind.values())
    m = {"setup_s":
         speed * median(adjusted_all(rec["setup"], setup_busy(rec))),
         "peak_rss_mb": max(r["peak_rss_mb"] for r in records.values())}
    if workload == "opt_flow":
        # One pass: the median Table II call plus the median Table III call.
        m["wall_s"] = m["wall_1t_s"] = sum(median(v) for v in by_kind.values())
    elif workload == "mc_spatial":
        m["wall_s"] = median(lat)
        m["wall_1t_s"] = record_speed(records[1]) * median(
            adjusted_all(untraced(records[1]), 1))
    else:
        m["wall_s"] = robust_total
        m["wall_1t_s"] = (rec["layer"]["local_reference_cpu_s"] * host_speed(
            rec["layer"]["local_reference_probe_s"]))
    m["req_per_s"] = len(lat) / robust_total
    # opt_flow's calls are two flows of different lengths in equal numbers:
    # the median of all calls would sit between the slowest Table II and
    # the fastest Table III call, so its typical call is the mean of the
    # two flows' medians.
    m["req_p50_ms"] = 1e3 * (robust_total / len(lat) if workload == "opt_flow"
                             else median(lat))
    m["ok_frac"] = 1.0 - tally.fail_frac
    return m


def flow_metrics(workload, rec, tally):
    """Workload-level figures that exist on one workload only (reported
    with the per-layer metrics, 0 elsewhere)."""
    q = rec["quality"]
    ops = untraced(rec)
    lat = adjusted_all(ops, rec["busy_threads"])
    raw = passes(rec) if workload == "opt_flow" else \
        [o["latency_s"] for o in ops]
    f = {"flow.fail_frac": tally.fail_frac,
         "flow.t2_yield_pct": q.get("t2_yield_pct", 0.0),
         "flow.t3_area_pct": q.get("t3_area_pct", 0.0),
         "flow.wall_nt_s": sum(raw) if workload == "service_mix" else
         median(raw),
         "flow.dies_per_s": 0.0, "flow.req_p95_ms": 0.0}
    if workload == "mc_spatial":
        f["flow.dies_per_s"] = (rec["layer"]["mc.dies_per_run"] * len(lat)
                                / sum(lat))
    elif workload == "service_mix":
        misses = len([o for o in ops if o["kind"] == "mc_miss"])
        f["flow.dies_per_s"] = (rec["layer"]["mc_dies_per_miss"] * misses
                                / sum(lat))
        f["flow.req_p95_ms"] = 1e3 * nearest_rank(lat, 95)
    return f


def layer_metrics(workload, rec, tally):
    """Per-layer metrics of one traced run (0 where a layer is not on this
    workload's path)."""
    layer, obs = rec["layer"], rec["obs"] or {"counters": {}, "spans": {}}
    counters, ospans = obs["counters"], obs["spans"]
    spans = rec["spans"]
    table = span_table(spans)
    selfs = self_times(spans)

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def obs_s(name):
        return ospans.get(name, {}).get("total_ns", 0) * 1e-9

    def lmed(name):
        v = layer.get(name, 0.0)
        return median(v) if isinstance(v, list) else v

    busy = rec["busy_threads"]
    traced_ops = [o for o in rec["ops"] if o["traced"]]
    traced_lat = adjusted_all(traced_ops, busy)
    untraced_lat = adjusted_all(untraced(rec), busy)
    if workload == "opt_flow":
        synth = median([o["latency_s"] for o in rec["setup"]])
        tw = sum(passes(rec, True, busy))
        uw = median(passes(rec, False, busy))
    elif workload == "mc_spatial":
        synth = lmed("netlist.synth_s")
        tw, uw = median(traced_lat), median(untraced_lat)
    else:
        synth = lmed("netlist.synth_s")
        tw, uw = sum(traced_lat), sum(untraced_lat)

    batches = counters.get("sim.pool.batches", 0)
    tasks = counters.get("sim.pool.tasks", 0)
    misses = [t for o, t in zip(traced_ops, traced_lat)
              if o["kind"].endswith("miss")]
    hits = [t for o, t in zip(traced_ops, traced_lat) if o["kind"] == "hit"]
    m = {
        "netlist.synth_s": synth,
        "process.sampler_build_s": lmed("process.sampler_build_s"),
        "process.sample_block_ns_per_die":
            lmed("process.sample_block_ns_per_die"),
        "mc.engine_build_s": lmed("mc.engine_build_s"),
        "mc.run_s": total("mc.run"),
        "mc.dies": calls("mc.run") * layer.get("mc.dies_per_run", 0),
        "mc.draw_s": obs_s("mc.draw"),
        "mc.chol_s": obs_s("mc.chol"),
        "mc.walk_s": obs_s("mc.walk"),
        "mc.fold_s": obs_s("mc.fold"),
        "sta.grid_calls": calls("sta.grid"),
        "sta.grid_lanes": layer.get("sta.grid_lanes", 0),
        "sta.grid_s": total("sta.grid"),
        "opt.size_stage_calls": calls("opt.size_stage"),
        "opt.size_stage_s": total("opt.size_stage"),
        "opt.individually_s": total("opt.individually"),
        "opt.optimize_s": total("opt.optimize"),
        "opt.optimize_self_s": 1e-9 * sum(
            t for s, t in zip(spans, selfs) if s["name"] == "opt.optimize"),
        "opt.sizer_iterations": counters.get("opt.sizer.iterations", 0),
        "opt.global_probes": counters.get("opt.global.probes", 0),
        "core.model_s": total("core.model"),
        "sim.pool_batches": batches,
        "sim.pool_tasks": tasks,
        "sim.tasks_per_batch": tasks / batches if batches else 0.0,
        "sim.queue_wait_s": obs_s("sim.pool.queue_wait"),
        "dist.fleet_up_s": lmed("dist.fleet_up_s"),
        "dist.miss_p50_ms": 1e3 * median(misses),
        "dist.hit_p50_ms": 1e3 * median(hits),
        "dist.cache_hit_ratio":
            len(hits) / len(traced_ops) if workload == "service_mix" else 0.0,
        "dist.cache_requests":
            len(traced_ops) if workload == "service_mix" else 0,
        "dist.queue_wait_p50_ms": lmed("dist.queue_wait_ms"),
        "dist.retries": layer.get("dist.retries", 0),
        "dist.forfeits": layer.get("dist.forfeits", 0),
        "dist.tx_bytes": counters.get("dist.tx_bytes", 0),
        "dist.rx_bytes": counters.get("dist.rx_bytes", 0),
        "obs.overhead_frac": tw / uw - 1.0 if uw else 0.0,
    }
    m.update(flow_metrics(workload, rec, tally))
    return m


def result_line(tally, metrics, spec_metrics):
    """The benchmark's last stdout line: every metric of `spec_metrics`
    (BENCHMARK.json's end_to_end or per_layer list) by name with its unit."""
    out = {}
    for s in spec_metrics:
        v = metrics[s["name"]]
        out[s["name"]] = {"value": float(v), "unit": s["unit"]}
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def validate_result(result, spec_metrics):
    """Schema check of a result line against the spec; returns problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be an integer >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be an integer")
    want = {s["name"]: s["unit"] for s in spec_metrics}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, v in got.items():
        if set(v) != {"value", "unit"} or v.get("unit") != want.get(name):
            problems.append(f"{name}: bad entry {v}")
        elif not isinstance(v["value"], (int, float)) or \
                not math.isfinite(v["value"]):
            problems.append(f"{name}: value {v['value']!r} is not finite")
    return problems


def comparable(env_a, env_b):
    """Results are comparable only on the same SIMD backend and width."""
    keys = ("simd_backend", "simd_max_width")
    diff = [k for k in keys if env_a.get(k) != env_b.get(k)]
    return not diff, diff
