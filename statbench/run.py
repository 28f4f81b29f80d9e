#!/usr/bin/env python3
"""statbench: whole-flow benchmark of statpipe.

    python3 statbench/run.py --workload opt_flow|mc_spatial|service_mix
                             --seed N --seconds T --trace 0|1
                             [--record PATH]

Builds the library, the worker and the benchmark runner from the source
tree this file sits in (into $CARGO_TARGET_DIR, default .bench_build, under
the tree's root), runs the workload, checks its outputs and prints one
table per metric group followed, as the LAST stdout line, by one JSON
object {"correct", "attempted", "failed", "metrics"}: every end-to-end
metric of BENCHMARK.json with --trace 0, every per-layer metric with
--trace 1 (plus a self-time table of the traced run).  Exits non-zero when
any output check fails.  --record also writes the result, stamped with its
environment, to PATH (see compare.py).

Workloads, metrics and the layer -> end-to-end map: statbench/README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing in the checkout but the build
sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0


def log(msg):
    print(f"statbench: {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "statbench"


def build(bdir):
    """Configure, then build incrementally (a no-op when current)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no statpipe source tree at {ROOT}")
        sys.exit(2)
    bdir.mkdir(parents=True, exist_ok=True)
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(bdir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configuring every time is cheap once cached and keeps a build
        # directory left by an older benchmark version usable.
        steps = [["cmake", "-S", str(HERE), "-B", str(bdir),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(bdir), "-j", str(nproc()),
                  "--target", "statbench_flows", "statpipe-worker"]]
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env, timeout=850)
            if r.returncode != 0:
                log(f"build step failed: {' '.join(cmd)}")
                sys.exit(2)


def run_flows(bdir, workload, seed, seconds, threads, mode, start,
               setup_reps=0):
    cmd = [str(bdir / "statbench_flows"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--threads", str(threads), "--mode", mode,
           "--worker-bin", str(bdir / "statpipe" / "statpipe-worker")]
    if setup_reps:
        cmd += ["--setup-reps", str(setup_reps)]
    left = DEADLINE_S - (time.monotonic() - start)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=max(left, 1.0))
    if r.returncode != 0 or not r.stdout.strip():
        log(f"runner failed ({r.returncode}): {' '.join(cmd)}")
        sys.exit(1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files += [ROOT / "CMakeLists.txt", HERE / "flows.cpp",
              HERE / "host_probe.cpp", HERE / "host_probe.h",
              HERE / "CMakeLists.txt"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(rec, n):
    env = dict(rec["env"])
    env.update(nproc=nproc(), threads_n=n, git_commit=git_commit(),
               source_sha256=source_digest())
    return env


def print_table(title, metrics, spec_metrics):
    print(f"-- {title}")
    units = {s["name"]: s["unit"] for s in spec_metrics}
    for name, v in metrics.items():
        print(f"  {name:34s} {v:16.6g} {units.get(name, '')}")


def print_self_time(rec):
    print("-- self time of the traced run (benchmark-side spans)")
    print(f"  {'span':22s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(bench.span_table(rec["spans"]).items()):
        print(f"  {name:22s} {row['calls']:7d} {row['total_s']:10.4f} "
              f"{row['self_s']:10.4f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()
    start = time.monotonic()
    spec = bench.load_spec()
    bdir = build_dir()
    build(bdir)

    n = nproc()
    w, seed, secs = args.workload, args.seed, args.seconds
    tally = bench.Tally()
    if args.trace:
        threads = 1 if w == "service_mix" else n
        rec = run_flows(bdir, w, seed, secs, threads, "trace", start)
        tally.add_record(rec)
        metrics = bench.layer_metrics(w, rec, tally)
        print_self_time(rec)
        spec_metrics = spec["per_layer"]
    else:
        records = {}
        if w == "service_mix":
            # The fleet's workers and the in-process reference (wall_1t_s)
            # run at one thread each; the runner's own loop is one thread.
            records[1] = run_flows(bdir, w, seed, secs, 1, "time", start)
        elif w == "opt_flow":
            # One N-thread pass for the bitwise check and flow.wall_nt_s;
            # the bounded walls come from the 1-thread run (README.md).
            records[n] = run_flows(bdir, w, seed, 0.1, n, "time", start,
                                    setup_reps=1)
            records[1] = run_flows(bdir, w, seed, secs, 1, "time", start)
        else:
            records[n] = run_flows(bdir, w, seed, secs, n, "time", start)
            records[1] = run_flows(bdir, w, seed, secs / 2, 1, "time",
                                    start, setup_reps=1)
        if n in records and 1 in records and n != 1:
            bench.check_thread_invariance(tally, records[n], records[1])
        for r in records.values():
            tally.add_record(r)
        rec = records[max(records)]
        metrics = bench.workload_metrics(w, records, tally)
        metrics.update(bench.flow_metrics(w, rec, tally))
        print_table("workload-level figures (also in --trace 1)",
                    {k: v for k, v in metrics.items()
                     if k.startswith("flow.")}, spec["per_layer"])
        spec_metrics = spec["end_to_end"]

    env = environment(rec, n)
    timed = rec if args.trace else bench.timed_record(w, records)
    if "host_probe_s" in timed["layer"]:
        env["host_speed"] = round(bench.record_speed(timed), 4)
    print("-- environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print_table(f"{w} seed {seed} "
                f"({'per-layer' if args.trace else 'end-to-end'})",
                {s["name"]: metrics[s["name"]] for s in spec_metrics},
                spec_metrics)
    for f in tally.failures:
        print(f"FAILED CHECK {f}")
    result = bench.result_line(tally, metrics, spec_metrics)
    problems = bench.validate_result(result, spec_metrics)
    if problems:
        log("result does not match BENCHMARK.json: " + "; ".join(problems))
        return 1
    if args.record:
        args.record.write_text(json.dumps(
            {"workload": w, "seed": seed, "trace": args.trace, "env": env,
             "result": result}, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
