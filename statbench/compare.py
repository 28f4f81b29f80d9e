#!/usr/bin/env python3
"""Summarize statbench results into a baseline, and diff two baselines.

    python3 statbench/compare.py summarize RECORD.json... -o BASELINE.json
    python3 statbench/compare.py diff BASELINE.json NEW.json

RECORD files are what `run.py --record PATH` writes (one run each, stamped
with its environment).  A summary keeps, per workload and end-to-end
metric, the median and quartiles over its runs, plus the median of each
per-layer metric over the traced runs.  `diff` flags every end-to-end
metric whose median got worse by more than its BENCHMARK.json bound, and
refuses (exit 2) to compare results taken on different SIMD backends:
their timings measure different code paths.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

STABLE_ENV = ("simd_backend", "simd_max_width", "block_width", "nproc",
              "threads_n", "compiler", "build_type", "git_commit",
              "source_sha256")


def summarize(records):
    env = {}
    for k in STABLE_ENV:
        seen = {r["env"].get(k) for r in records}
        env[k] = seen.pop() if len(seen) == 1 else "mixed"
    ok, diff = bench.comparable(env, records[0]["env"])
    if not ok:
        raise SystemExit(f"compare: records disagree on {diff}")
    out = {"env": env, "workloads": {}, "per_layer": {}}
    groups = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    for (w, trace), rs in sorted(groups.items()):
        names = rs[0]["result"]["metrics"]
        if trace:
            out["per_layer"][w] = {
                n: statistics.median(r["result"]["metrics"][n]["value"]
                                     for r in rs) for n in names}
            continue
        row = {}
        for n, v in names.items():
            xs = [r["result"]["metrics"][n]["value"] for r in rs]
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
            med = statistics.median(xs)
            row[n] = {"median": med, "q1": q[0], "q3": q[2], "n": len(xs),
                      "spread": (q[2] - q[0]) / med if med else 0.0,
                      "unit": v["unit"]}
        row["seeds"] = sorted(r["seed"] for r in rs)
        row["source_sha256"] = sorted({r["env"]["source_sha256"] for r in rs})
        out["workloads"][w] = row
    return out


def diff(base, new, spec_metrics):
    """Rows (workload, metric, base median, new median, regressed)."""
    ok, which = bench.comparable(base["env"], new["env"])
    if not ok:
        raise SystemExit(f"compare: SIMD backend mismatch on {which} "
                         f"({base['env'].get('simd_backend')} -> "
                         f"{new['env'].get('simd_backend')}); refusing")
    rows = []
    for w, metrics in base["workloads"].items():
        for s in spec_metrics:
            if s["name"] not in metrics or s["name"] not in \
                    new["workloads"].get(w, {}):
                continue
            b = metrics[s["name"]]["median"]
            n = new["workloads"][w][s["name"]]["median"]
            worse = (n - b) / b if s["better"] == "lower" else (b - n) / b
            rows.append((w, s["name"], b, n, worse > s["bound"]))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("records", nargs="+", type=Path)
    s.add_argument("-o", "--out", type=Path, required=True)
    d = sub.add_parser("diff")
    d.add_argument("base", type=Path)
    d.add_argument("new", type=Path)
    args = ap.parse_args()
    if args.cmd == "summarize":
        recs = [json.loads(p.read_text()) for p in args.records]
        args.out.write_text(json.dumps(summarize(recs), indent=1) + "\n")
        return 0
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())
    rows = diff(base, new, bench.load_spec()["end_to_end"])
    for w, name, b, n, bad in rows:
        print(f"{w:12s} {name:14s} {b:12.6g} -> {n:12.6g}"
              f"{'  REGRESSION' if bad else ''}")
    return 1 if any(r[4] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
