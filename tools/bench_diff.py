#!/usr/bin/env python3
"""Diff two BENCH_*.json records and flag performance regressions.

The benches (sample_sta_block, batched_ssta, perf_micro) emit flat
machine-readable records via bench_util::JsonReport:

    {"bench": "...", "meta": {...}, "rows": [{...}, ...]}

This tool compares consecutive records of the same bench — typically the
previous CI run's artifact vs the current one — and reports per-row deltas
for every shared numeric column:

  * columns ending in "_ms" are times: lower is better;
  * columns starting with "speedup" are ratios: higher is better.  In a
    row that also carries "_ms" columns a ratio is derived from them
    (sample_sta_block's speedup_wN = w1_1t_ms / wN_1t_ms), so it is
    printed but never flagged: when the time it divides by improves, the
    ratio drops although nothing got slower, and any real slowdown already
    shows in the "_ms" column itself.  A row with only ratios is flagged
    on them;
  * other numeric columns (gate counts, bitwise flags, ...) are never
    flagged and printed only when their value changed between records.

Rows are matched by their first string-valued column (e.g. "circuit" or
"case"); rows present on only one side are reported but not flagged.

Records carry the SIMD backend they ran on in meta.simd_backend (written
by the benches since the runtime-dispatch layer landed).  Timings taken on
different backends measure different code paths, so when the two records
disagree — or exactly one record predates the field — the diff prints a
prominent mismatch notice and skips regression flagging entirely instead
of reporting bogus slowdowns/speedups.

Exit status: 0 by default (the CI bench-smoke job *flags* regressions in
the log without failing the build — bench machines are noisy); with
--strict, exits 1 when any watched column regresses by more than
--threshold (default 0.25 = 25%, deliberately loose for shared runners).

Usage:
    tools/bench_diff.py OLD.json NEW.json [--threshold 0.25] [--strict]
"""
import argparse
import json
import sys
from pathlib import Path


def load(path):
    with open(path, encoding="utf-8") as f:
        rec = json.load(f)
    for key in ("bench", "rows"):
        if key not in rec:
            raise SystemExit(f"bench_diff: {path}: not a JsonReport record "
                             f"(missing '{key}')")
    return rec


def row_key(row):
    for v in row.values():
        if isinstance(v, str):
            return v
    return "<row>"


def keyed_rows(rows):
    """Rows keyed by their first string column; duplicates get a #N suffix
    so two rows sharing a label are both diffed instead of the earlier one
    being silently dropped."""
    out = {}
    for row in rows:
        base = row_key(row)
        key, n = base, 1
        while key in out:
            n += 1
            key = f"{base}#{n}"
        out[key] = row
    return out


def numeric_columns(row):
    return {k: v for k, v in row.items() if isinstance(v, (int, float))}


def classify(col):
    if col.endswith("_ms"):
        return "time"       # lower is better
    if col.startswith("speedup"):
        return "ratio"      # higher is better
    return "info"


def simd_backend(rec):
    """meta.simd_backend, or None for records that predate the field."""
    meta = rec.get("meta", {})
    v = meta.get("simd_backend")
    return v if isinstance(v, str) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative regression to flag (default 0.25)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when a watched column regresses")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)
    if old["bench"] != new["bench"]:
        raise SystemExit(f"bench_diff: records disagree on bench name "
                         f"({old['bench']!r} vs {new['bench']!r})")

    old_rows = keyed_rows(old["rows"])
    new_rows = keyed_rows(new["rows"])

    print(f"bench_diff: {new['bench']} "
          f"({args.old.name} -> {args.new.name}, threshold "
          f"{args.threshold:.0%})")

    # Backend gate: timings from different SIMD backends are not
    # comparable.  A record without the field (pre-dispatch-layer) vs one
    # with it counts as a mismatch too — the backend is unknown on one side.
    ob, nb = simd_backend(old), simd_backend(new)
    comparable = ob == nb
    if not comparable:
        print(f"  SIMD backend mismatch "
              f"({ob or '<unrecorded>'} -> {nb or '<unrecorded>'}); "
              f"timing columns not comparable, regression flagging skipped")

    regressions = []
    for key in new_rows:
        if key not in old_rows:
            print(f"  {key}: new row (no baseline)")
            continue
        o, n = numeric_columns(old_rows[key]), numeric_columns(new_rows[key])
        shared = sorted(set(o) & set(n))
        has_times = any(classify(col) == "time" for col in shared)
        for col in shared:
            ov, nv = o[col], n[col]
            if ov == 0:
                continue
            rel = (nv - ov) / abs(ov)
            kind = classify(col)
            flag = ""
            if not comparable and kind != "info":
                flag = "  (backend mismatch: not flagged)"
            elif kind == "ratio" and has_times:
                flag = "  (derived from the _ms columns: not flagged)"
            elif kind == "time" and rel > args.threshold:
                flag = "  <-- REGRESSION (slower)"
                regressions.append((key, col, rel))
            elif kind == "ratio" and rel < -args.threshold:
                flag = "  <-- REGRESSION (less speedup)"
                regressions.append((key, col, rel))
            if kind != "info" or nv != ov:
                print(f"  {key}.{col}: {ov:.4g} -> {nv:.4g} "
                      f"({rel:+.1%}){flag}")
    for key in old_rows:
        if key not in new_rows:
            print(f"  {key}: row disappeared")

    if not comparable:
        print(f"bench_diff: SIMD backend mismatch "
              f"({ob or '<unrecorded>'} -> {nb or '<unrecorded>'}) — "
              f"no regressions flagged; re-baseline on the new backend")
        return 0
    if regressions:
        print(f"bench_diff: {len(regressions)} regression(s) flagged")
        return 1 if args.strict else 0
    print("bench_diff: no regressions flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
