// statbench runner: runs one whole statpipe flow through the library's
// public APIs and prints ONE JSON record of raw measurements on its last
// stdout line — timings per user-level call, result digests, output
// checks, the benchmark-side span log and (traced mode) the obs snapshot.
// statbench/run.py launches it, aggregates the records into the metrics
// named in BENCHMARK.json and decides correctness.
//
//   statbench_flows --workload opt_flow|mc_spatial|service_mix
//                    --seed S --seconds T --threads N --mode time|trace
//                    [--worker-bin PATH] [--setup-reps K]
//
// --threads sets the shared pool width (STATPIPE_THREADS) before the
// library first touches the pool, so one process measures one thread
// count.  --mode trace runs the timed flow twice, untraced then traced
// (obs telemetry on, spans recorded around every call into a layer), so
// the record carries both walls for obs.overhead_frac.  The benchmark only
// observes: traced results are checked bitwise against untraced ones.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/characterized_pipeline.h"
#include "core/pipeline_model.h"
#include "device/delay_model.h"
#include "device/latch.h"
#include "dist/cluster.h"
#include "dist/serialize.h"
#include "dist/task.h"
#include "dist/workload.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "opt/global_optimizer.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sim/thread_pool.h"
#include "sta/ssta_batch.h"
#include "stats/descriptive.h"
#include "stats/lanes.h"
#include "stats/rng.h"
#include "stats/simd.h"

#include "host_probe.h"

namespace {

namespace sp = statpipe;

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

// ------------------------------------------------------------ JSON output

std::string quote(const std::string& s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      q += buf;
    } else {
      q += c;
    }
  }
  return q + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

/// Flat JSON object builder: values are pre-serialized JSON fragments.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(k) + ": " + json;
    return *this;
  }
  Obj& str(const std::string& k, const std::string& v) { return raw(k, quote(v)); }
  Obj& f(const std::string& k, double v) { return raw(k, num(v)); }
  Obj& u(const std::string& k, std::uint64_t v) { return raw(k, num(v)); }
  Obj& b(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + items[i];
  return out + "]";
}

std::string num_array(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(num(x));
  return array(items);
}

// --------------------------------------------------------------- digests

/// FNV-1a over raw bytes: result identity for the cross-process bitwise
/// checks (the N-thread and 1-thread runs are different processes).
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void blob(const std::vector<std::uint8_t>& v) { bytes(v.data(), v.size()); }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------- benchmark-side spans

/// In-memory span log recorded from the benchmark's own files around each
/// call into a layer.  A span's parent is the innermost span open on the
/// same thread; a span opened on a pool thread with nothing open there is
/// parented to the innermost span open on the main thread (the call that
/// fanned the work out).  Off unless enabled; off costs one branch.
class Tracer {
 public:
  struct Rec {
    const char* name;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    long parent = -1;
  };

  void enable(bool on) { on_ = on; }

  long open(const char* name) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lk(m_);
    const long idx = static_cast<long>(recs_.size());
    const bool main = std::this_thread::get_id() == main_id_;
    long parent = stack().empty() ? (main ? -1 : main_top_) : stack().back();
    recs_.push_back({name, now_ns(), 0, parent});
    stack().push_back(idx);
    if (main) main_top_ = idx;
    return idx;
  }

  void close(long idx) {
    if (idx < 0) return;
    std::lock_guard<std::mutex> lk(m_);
    recs_[static_cast<std::size_t>(idx)].t1 = now_ns();
    stack().pop_back();
    if (std::this_thread::get_id() == main_id_)
      main_top_ = stack().empty() ? -1 : stack().back();
  }

  std::string json() const {
    std::vector<std::string> items;
    for (const Rec& r : recs_)
      items.push_back(Obj()
                          .str("name", r.name)
                          .u("t0_ns", static_cast<std::uint64_t>(r.t0))
                          .u("t1_ns", static_cast<std::uint64_t>(r.t1))
                          .raw("parent", std::to_string(r.parent))
                          .json());
    return array(items);
  }

 private:
  static std::vector<long>& stack() {
    thread_local std::vector<long> s;
    return s;
  }

  std::atomic<bool> on_{false};
  std::mutex m_;
  std::vector<Rec> recs_;
  long main_top_ = -1;
  std::thread::id main_id_ = std::this_thread::get_id();
};

Tracer g_tracer;

class Span {
 public:
  explicit Span(const char* name) : idx_(g_tracer.open(name)) {}
  ~Span() { g_tracer.close(idx_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  long idx_;
};

// -------------------------------------------------------------- checks

struct Checks {
  std::vector<std::string> items;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void expect(const std::string& name, bool ok, const std::string& detail) {
    ++attempted;
    if (!ok) ++failed;
    items.push_back(
        Obj().str("name", name).b("ok", ok).str("detail", detail).json());
    if (!ok) std::fprintf(stderr, "statbench: CHECK FAILED %s: %s\n",
                          name.c_str(), detail.c_str());
  }
};

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c);
  return buf;
}

/// CPU time the hypervisor stole from this VM, summed over its CPUs
/// (/proc/stat "steal", USER_HZ ticks); 0 where the kernel reports none.
double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) /
                        static_cast<double>(::sysconf(_SC_CLK_TCK))
                  : 0.0;
}

/// CPU time of the whole process, all threads (excludes steal where the
/// kernel accounts it, CONFIG_PARAVIRT_TIME_ACCOUNTING).
double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One user-level call in the timed flow (a flow, an MC run, a request).
struct Op {
  std::string kind;
  double latency_s = 0.0;
  bool traced = false;
  std::string digest;
  double steal_s = 0.0;  ///< VM steal over the call, all CPUs summed
  double cpu_s = 0.0;    ///< CPU time of this process over the call
};

/// Times `fn` (which returns the result digest) as one op: its wall, the
/// process CPU time and the VM steal around it, all read outside the timed
/// interval's body.
template <class Fn>
Op timed(std::string kind, bool traced, Fn&& fn) {
  Op op;
  op.kind = std::move(kind);
  op.traced = traced;
  const double st0 = steal_s();
  const double c0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  op.digest = fn();
  op.latency_s = seconds_since(t0);
  op.cpu_s = process_cpu_s() - c0;
  op.steal_s = steal_s() - st0;
  return op;
}

std::string ops_json(const std::vector<Op>& ops) {
  std::vector<std::string> items;
  for (const Op& o : ops)
    items.push_back(Obj()
                        .str("kind", o.kind)
                        .f("latency_s", o.latency_s)
                        .b("traced", o.traced)
                        .str("digest", o.digest)
                        .f("steal_s", o.steal_s)
                        .f("cpu_s", o.cpu_s)
                        .json());
  return array(items);
}

std::string obs_json() {
  const sp::obs::MetricsSnapshot snap = sp::obs::snapshot();
  Obj counters, spans;
  for (const auto& c : snap.counters) counters.u(c.name, c.value);
  for (const auto& s : snap.spans)
    spans.raw(s.name, Obj().u("count", s.count).u("total_ns", s.total_ns).json());
  return Obj().raw("counters", counters.json()).raw("spans", spans.json()).json();
}

double rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::size_t threads = 1;
  bool trace = false;
  std::string worker_bin;
  int setup_reps = 0;  ///< 0 = the workload's default
};

int reps(const Args& a, int workload_default) {
  return a.setup_reps > 0 ? a.setup_reps : workload_default;
}

/// Host-speed probe (README.md, "Timing rule"): CPU seconds per
/// host_probe() call, sampled between timed calls, never inside one.
struct HostProbe {
  std::vector<double> samples;
  double sink = 0.0;

  void sample() {
    for (int i = 0; i < 10; ++i) {
      const double c0 = process_cpu_s();
      sink += statbench::host_probe();
      samples.push_back(process_cpu_s() - c0);
    }
  }
};

/// What a workload hands back to main() for the record.
struct Record {
  std::vector<Op> setup;  // one per set-up repetition
  std::vector<Op> ops;
  Obj layer;           // raw per-layer measurements the spans cannot give
  Obj quality;         // paper-facing outputs (yield, area)
  std::string obs;     // snapshot after the traced pass ("" untraced)
  double peak_rss_mb = 0.0;
};

// ============================================================== opt_flow

// The 4-stage ISCAS85 pipeline of Tables II/III (c3540 / c2670 / c1908 /
// c432) with its intra-dominant variation mix, as the paper artifacts set
// it up.  Heap-held because LatchModel keeps a pointer to the model.
struct OptFixture {
  std::vector<sp::netlist::Netlist> stages;
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec =
      sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);
  sp::device::LatchModel latch{{}, model};

  std::vector<sp::netlist::Netlist*> ptrs() {
    std::vector<sp::netlist::Netlist*> v;
    for (auto& s : stages) v.push_back(&s);
    return v;
  }
};

const char* const kOptStages[] = {"c3540", "c2670", "c1908", "c432"};

void sized(sp::netlist::Netlist& nl, const OptFixture& f,
           const sp::opt::SizerOptions& so) {
  Span s("opt.size_stage");
  (void)sp::opt::size_stage(nl, f.model, f.spec, so);
}

/// Slowest stage's statistical delay at its fastest sizing (the artifacts'
/// probe for placing the pipeline target), sized on copies.
double fastest_stage_stat_delay(const OptFixture& f, double yield) {
  double worst = 0.0;
  for (const auto& s : f.stages) {
    auto copy = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    so.yield_target = yield;
    sized(copy, f, so);
    worst = std::max(worst, sp::opt::stat_delay(copy, f.model, f.spec, yield));
  }
  return worst;
}

void digest_result(Digest& d, const sp::opt::GlobalOptimizerResult& r,
                   OptFixture& f) {
  d.f64(r.pipeline_yield_before);
  d.f64(r.pipeline_yield_after);
  d.f64(r.total_area_before);
  d.f64(r.total_area_after);
  for (const auto& s : r.stages) {
    d.f64(s.area_before);
    d.f64(s.area_after);
    d.f64(s.yield_before);
    d.f64(s.yield_after);
    d.f64(s.elasticity);
    d.u64(s.chosen_for_speedup ? 1 : 0);
  }
  for (const auto& nl : f.stages)
    for (double x : nl.sizes()) d.f64(x);
}

struct FlowOut {
  double yield_pct = 0.0;
  double area_pct = 0.0;
  std::string digest;
};

sp::core::PipelineModel model_of(sp::opt::GlobalPipelineOptimizer& go) {
  Span s("core.model");
  return go.current_model();
}

/// Table II: ensure the 80% pipeline yield target with a small area penalty
/// (kEnsureYield), from individually optimized stages.
FlowOut table2(OptFixture& f, const sp::sta::GridCharacterizer& grid) {
  Span flow("flow.table2");
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.model, f.spec, f.latch);
  const double y_stage = std::pow(0.80, 0.25);
  const double comb0 = fastest_stage_stat_delay(f, y_stage) * 1.05;
  const double t0 = comb0 + f.latch.timing().nominal_overhead();
  sp::core::PipelineModel baseline = [&] {
    Span s("opt.individually");
    return go.optimize_individually(t0, 0.80);
  }();
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < baseline.stage_count(); ++i)
    if (baseline.stage_delay(i).mean > baseline.stage_delay(slowest).mean)
      slowest = i;
  for (std::size_t i = 0; i < f.stages.size(); ++i) {
    if (i == slowest) continue;
    sp::opt::SizerOptions so;
    so.yield_target = y_stage;
    so.t_target = comb0 * 0.95;
    sized(f.stages[i], f, so);
  }
  baseline = model_of(go);
  const double area_norm = baseline.total_area();
  const double t_target = baseline.stage_delay(slowest).quantile(0.84);

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kEnsureYield;
  opt.sweep.points = 8;
  opt.grid = grid;
  opt.sweep.grid = grid;
  const auto r = [&] {
    Span s("opt.optimize");
    return go.optimize(opt);
  }();
  const double y_model = [&] {
    Span s("core.model");
    return r.final_model.yield(t_target);
  }();
  Digest d;
  digest_result(d, r, f);
  d.f64(y_model);
  return {100.0 * r.pipeline_yield_after,
          100.0 * r.total_area_after / area_norm, d.hex()};
}

/// Table III: recover area at a fixed 80% pipeline yield (kMinimizeArea),
/// from a conservative 95%-per-stage baseline.
FlowOut table3(OptFixture& f, const sp::sta::GridCharacterizer& grid) {
  Span flow("flow.table3");
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.model, f.spec, f.latch);
  const double comb = fastest_stage_stat_delay(f, 0.95) * 1.04;
  const double t_target = comb + f.latch.timing().nominal_overhead();
  for (auto* nl : f.ptrs()) {
    sp::opt::SizerOptions so;
    so.yield_target = 0.95;
    so.t_target = comb;
    sized(*nl, f, so);
  }
  const double area_norm = model_of(go).total_area();

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kMinimizeArea;
  opt.sweep.points = 8;
  opt.max_outer_rounds = 4;
  opt.grid = grid;
  opt.sweep.grid = grid;
  const auto r = [&] {
    Span s("opt.optimize");
    return go.optimize(opt);
  }();
  const double y_model = [&] {
    Span s("core.model");
    return r.final_model.yield(t_target);
  }();
  Digest d;
  digest_result(d, r, f);
  d.f64(y_model);
  return {100.0 * r.pipeline_yield_after,
          100.0 * r.total_area_after / area_norm, d.hex()};
}

/// Benchmark-side sta::GridCharacterizer: times each whole-grid call and
/// forwards it to the local SstaBatch path — bitwise-neutral by the seam's
/// contract (sta/ssta_batch.h).
std::atomic<std::uint64_t> g_grid_lanes{0};

sp::sta::GridCharacterizer timing_grid() {
  return [](const sp::netlist::Netlist& nl,
            const sp::device::AlphaPowerModel& model,
            const std::vector<std::vector<double>>& size_grid,
            const sp::process::VariationSpec& spec,
            const sp::sta::SstaOptions& sopt) {
    Span s("sta.grid");
    g_grid_lanes += size_grid.size();
    return sp::sta::characterize_grid(nl, model, size_grid, spec, sopt);
  };
}

std::vector<sp::netlist::Netlist> synth(const std::vector<std::string>& names) {
  Span s("netlist.synth");
  std::vector<sp::netlist::Netlist> out;
  for (const auto& n : names) out.push_back(sp::netlist::iscas_like(n));
  return out;
}

Record run_opt_flow(const Args& a, Checks& ck) {
  Record rec;
  const std::vector<std::string> names(std::begin(kOptStages),
                                       std::end(kOptStages));
  std::vector<sp::netlist::Netlist> pristine;
  auto setup = [&] {
    rec.setup.push_back(timed("setup", false, [&] {
      pristine = synth(names);
      return std::string();
    }));
  };
  for (int i = 0; i < reps(a, 1); ++i) setup();

  // Between timed calls: the host-speed probe and more set-up repetitions.
  // Set-up is netlist synthesis alone (a few ms); repeated across the run,
  // its median covers the host's state over the run, not over its first
  // few ms.
  HostProbe probe;
  auto between_calls = [&] {
    probe.sample();
    if (a.setup_reps == 0)
      for (int i = 0; i < 4; ++i) setup();
  };

  auto pass = [&](bool traced) {
    g_tracer.enable(traced);
    sp::obs::set_enabled(traced);
    const sp::sta::GridCharacterizer grid =
        traced ? timing_grid() : sp::sta::GridCharacterizer{};
    const std::string tag = traced ? " (traced)" : "";
    for (int t = 2; t <= 3; ++t) {
      auto f = std::make_unique<OptFixture>();
      f->stages = pristine;
      FlowOut out;
      const Op op = timed(t == 2 ? "table2" : "table3", traced, [&] {
        out = t == 2 ? table2(*f, grid) : table3(*f, grid);
        return out.digest;
      });
      ck.expect(op.kind + "_yield_at_least_80" + tag, out.yield_pct >= 80.0,
                fmt("pipeline yield after %.3f%%", out.yield_pct));
      if (rec.ops.size() < 2) {  // repeats reproduce these bits (checked)
        if (t == 2) rec.quality.f("t2_yield_pct", out.yield_pct);
        else rec.quality.f("t3_area_pct", out.area_pct);
      }
      rec.ops.push_back(op);
      if (!traced) between_calls();
    }
    g_tracer.enable(false);
    sp::obs::set_enabled(false);
  };

  // The timed flow repeats until the budget is spent (at least once); the
  // traced pass runs exactly once so its counters repeat exactly.
  const std::int64_t start = now_ns();
  do {
    pass(false);
  } while (seconds_since(start) < a.seconds * (a.trace ? 0.5 : 1.0));
  if (a.trace) {
    sp::obs::reset();
    pass(true);
    rec.obs = obs_json();
  }
  // Every repetition (traced included) must reproduce the first bits.
  for (std::size_t i = 2; i < rec.ops.size(); ++i)
    ck.expect("repeat_bitwise_" + rec.ops[i].kind + "_" + std::to_string(i / 2),
              rec.ops[i].digest == rec.ops[i % 2].digest,
              rec.ops[i].digest + " vs " + rec.ops[i % 2].digest);
  rec.layer.u("sta.grid_lanes", g_grid_lanes.load());
  rec.layer.raw("host_probe_s", num_array(probe.samples));
  rec.peak_rss_mb = rss_mb(RUSAGE_SELF);
  return rec;
}

// ============================================================ mc_spatial

// 3-stage c1908 / c880 / c432 pipeline with the systematic spatial field
// on, at the backend's preferred block width.
const char* const kMcStages[] = {"c1908", "c880", "c432"};
constexpr std::size_t kMcDies = 4096;

/// Site positions GateLevelMonteCarlo lays out for these stages: stage s's
/// gates on die segment [s/N, (s+1)/N], its latch at the right edge.
std::vector<double> pipeline_sites(const std::vector<sp::netlist::Netlist>& st) {
  std::vector<double> pos;
  const double n = static_cast<double>(st.size());
  for (std::size_t s = 0; s < st.size(); ++s) {
    for (std::size_t g = 0; g < st[s].size(); ++g)
      pos.push_back((static_cast<double>(s) + st[s].gate(g).position) / n);
    pos.push_back((static_cast<double>(s) + 1.0) / n);
  }
  return pos;
}

Record run_mc_spatial(const Args& a, Checks& ck) {
  Record rec;
  const std::vector<std::string> names(std::begin(kMcStages),
                                       std::end(kMcStages));
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const sp::process::VariationSpec spec =
      sp::process::VariationSpec::inter_intra(0.01, 0.02, 0.5);

  std::vector<sp::netlist::Netlist> stages;
  std::unique_ptr<sp::mc::GateLevelMonteCarlo> engine;
  std::vector<double> synth_s, engine_s;
  for (int i = 0; i < reps(a, 3); ++i) {
    engine.reset();
    rec.setup.push_back(timed("setup", false, [&] {
      const std::int64_t t0 = now_ns();
      stages = synth(names);
      synth_s.push_back(seconds_since(t0));
      const std::int64_t t1 = now_ns();
      std::vector<const sp::netlist::Netlist*> views;
      for (const auto& s : stages) views.push_back(&s);
      engine = std::make_unique<sp::mc::GateLevelMonteCarlo>(views, model,
                                                             spec, latch);
      engine_s.push_back(seconds_since(t1));
      return std::string();
    }));
  }
  rec.layer.raw("netlist.synth_s", num_array(synth_s));
  rec.layer.raw("mc.engine_build_s", num_array(engine_s));

  // 16 shards per call: slack for the pool to route work around a vCPU
  // the host has descheduled (4 shards of 1024 made each call as slow as
  // its most-stolen thread).
  sp::sim::ExecutionOptions exec;
  exec.block_width = sp::stats::lanes::preferred_width();
  exec.samples_per_shard = 256;

  sp::stats::RunningStats pooled;
  HostProbe probe;
  std::size_t run_index = 0;
  auto one_run = [&](bool traced) {
    sp::stats::Rng rng(splitmix(a.seed ^ splitmix(run_index)));
    sp::mc::McResult r;
    const Op op = timed("mc", traced, [&] {
      Span s("mc.run");
      r = engine->run(kMcDies, rng, exec);
      return std::string();
    });
    Digest d;
    d.blob(sp::dist::serialize_mc_result(r));
    rec.ops.push_back(op);
    rec.ops.back().digest = d.hex();
    if (!traced) {
      for (double x : r.tp_samples) pooled.add(x);
      probe.sample();
    }
    ++run_index;
  };

  // Traced mode replays the first kTracedRuns untraced seeds, traced, so
  // their results can be checked bitwise and their counts repeat exactly.
  constexpr std::size_t kTracedRuns = 4;
  const std::int64_t start = now_ns();
  do {
    one_run(false);
  } while (seconds_since(start) < a.seconds * (a.trace ? 0.5 : 1.0) ||
           (a.trace && run_index < kTracedRuns));
  if (a.trace) {
    const std::size_t untraced = run_index;
    run_index = 0;
    sp::obs::reset();
    sp::obs::set_enabled(true);
    g_tracer.enable(true);
    while (run_index < kTracedRuns) one_run(true);
    g_tracer.enable(false);
    sp::obs::set_enabled(false);
    rec.obs = obs_json();
    for (std::size_t i = 0; i < run_index; ++i)
      ck.expect("traced_bitwise_run_" + std::to_string(i),
                rec.ops[untraced + i].digest == rec.ops[i].digest,
                rec.ops[untraced + i].digest + " vs " + rec.ops[i].digest);

    // Standalone sampler over the same sites: build cost and block draw
    // cost per die, measured with telemetry off so the mc.* spans above
    // cover only the engine runs.
    const std::vector<double> sites = pipeline_sites(stages);
    const std::int64_t b0 = now_ns();
    const sp::process::VariationSampler sampler(model.technology(), spec,
                                                sites);
    rec.layer.f("process.sampler_build_s", seconds_since(b0));
    const std::size_t w = exec.block_width;
    std::vector<sp::stats::Rng> lanes(w);
    sp::process::DieBlock block;
    sp::process::BlockWorkspace ws;
    const sp::stats::Rng root(a.seed);
    std::size_t blocks = 0;
    const std::int64_t s0 = now_ns();
    do {
      for (std::size_t j = 0; j < w; ++j) lanes[j] = root.fork(blocks * w + j);
      sampler.sample_block_into(lanes.data(), w, block, ws);
      ++blocks;
    } while (blocks < 16 || seconds_since(s0) < 0.5);
    rec.layer.f("process.sample_block_ns_per_die",
                (now_ns() - s0) / static_cast<double>(blocks * w));
  }

  // The MC must agree with the analytical model it verifies.  Tolerance:
  // 4 standard errors of the pooled sample plus the paper's accuracy claim
  // for the Clark/SSTA model (mean within ~1%, sigma within a few %); no
  // golden values, so a re-baselined field sampler still passes.
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::stats::Gaussian g =
      sp::core::build_pipeline_ssta(views, model, spec, latch)
          .delay_distribution();
  const double n = static_cast<double>(pooled.count());
  const double mu = pooled.mean(), sd = pooled.stddev();
  const double mu_tol = 4.0 * sd / std::sqrt(n) + 0.01 * g.mean;
  const double sd_tol = 4.0 * sd / std::sqrt(2.0 * n) + 0.05 * g.sigma;
  ck.expect("mc_mean_matches_model", std::fabs(mu - g.mean) <= mu_tol,
            fmt("mc %.4f vs model %.4f ps, tol %.4f", mu, g.mean, mu_tol));
  ck.expect("mc_sigma_matches_model", std::fabs(sd - g.sigma) <= sd_tol,
            fmt("mc %.4f vs model %.4f ps, tol %.4f", sd, g.sigma, sd_tol));
  rec.layer.u("mc.dies_per_run", kMcDies);
  rec.layer.raw("host_probe_s", num_array(probe.samples));
  rec.peak_rss_mb = rss_mb(RUSAGE_SELF);
  return rec;
}

// =========================================================== service_mix

constexpr std::size_t kRequests = 240;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kServiceDies = 4096;
// 160 lanes make a grid miss slower than an MC miss, so the request
// median falls a third of the way into the MC misses instead of on their
// fast edge, where it swung by 30% between runs.
constexpr std::size_t kGridLanes = 160;

/// The fixed, seeded request sequence: in every block of ten, slot 0 is a
/// c3540 kSstaGrid characterization, slots 2/5/8 exactly repeat an earlier
/// request (answered by the result cache), the rest are gate-level MC runs
/// (no spatial field) with distinct seeds.
struct Sequence {
  std::vector<sp::dist::RunDescriptor> unique;  // distinct descriptors
  std::vector<std::size_t> order;               // request -> unique index
  std::vector<bool> repeat;                     // request is an exact repeat
};

Sequence make_sequence(std::uint64_t seed, std::size_t c3540_gates) {
  Sequence sq;
  sp::stats::Rng rng(seed);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t slot = i % 10;
    if (slot == 2 || slot == 5 || slot == 8) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(sq.unique.size())));
      sq.order.push_back(std::min(pick, sq.unique.size() - 1));
      sq.repeat.push_back(true);
      continue;
    }
    sp::dist::RunDescriptor d;
    if (slot == 0) {
      d.task_kind = sp::dist::TaskKind::kSstaGrid;
      d.workload = "c3540";
      for (std::size_t k = 0; k < kGridLanes; ++k) {
        std::vector<double> sizes(c3540_gates);
        for (double& x : sizes) x = rng.uniform(0.5, 4.0);
        d.size_grid.push_back(std::move(sizes));
      }
    } else {
      d.task_kind = sp::dist::TaskKind::kMonteCarlo;
      d.workload = "c1908,c880,c432";
      d.n_samples = kServiceDies;
      d.samples_per_shard = 1024;
      d.block_width = sp::stats::lanes::preferred_width();
      d.seed = splitmix(seed ^ (0x5e41ULL + i));
    }
    sp::dist::finalize_descriptor(d);
    sq.order.push_back(sq.unique.size());
    sq.repeat.push_back(false);
    sq.unique.push_back(std::move(d));
  }
  return sq;
}

std::unique_ptr<sp::dist::ClusterHandle> start_fleet(const Args& a) {
  Span s("dist.fleet_up");
  sp::dist::ClusterOptions cl;
  cl.coordinator.verbose = false;
  // Two-unit ranges: an MC request's 4 shards go out as one range per
  // worker.  Single-unit ranges let timing decide between 2+2 and 3+1
  // splits, which made request latency bimodal (1.5x apart).
  cl.coordinator.units_per_range = 2;
  cl.spawn_workers = kWorkers;
  cl.worker_bin = a.worker_bin;
  auto h = std::make_unique<sp::dist::ClusterHandle>(cl);
  // Admission: tiny two-unit requests until the whole fleet has joined.
  for (std::uint64_t k = 0;; ++k) {
    sp::dist::RunDescriptor d;
    d.workload = "c432";
    d.n_samples = 64;
    d.samples_per_shard = 32;
    d.seed = 0xadd1ULL + k;
    sp::dist::finalize_descriptor(d);
    sp::dist::RunMetrics m;
    (void)h->submit(d, 0, &m);
    if (m.workers_admitted >= kWorkers) break;
    if (k > 500) throw std::runtime_error("fleet did not come up");
    ::usleep(2000);
  }
  return h;
}

Record run_service_mix(const Args& a, Checks& ck) {
  Record rec;
  std::vector<double> synth_s, fleet_s;
  std::unique_ptr<sp::dist::ClusterHandle> fleet;
  std::size_t c3540_gates = 0;
  for (int i = 0; i < reps(a, 15); ++i) {
    if (fleet) fleet->close();
    fleet.reset();
    rec.setup.push_back(timed("setup", false, [&] {
      const std::int64_t t0 = now_ns();
      c3540_gates = synth({"c3540"}).front().size();
      synth_s.push_back(seconds_since(t0));
      const std::int64_t t1 = now_ns();
      fleet = start_fleet(a);
      fleet_s.push_back(seconds_since(t1));
      return std::string();
    }));
  }
  rec.layer.raw("netlist.synth_s", num_array(synth_s));
  rec.layer.raw("dist.fleet_up_s", num_array(fleet_s));

  const Sequence sq = make_sequence(a.seed, c3540_gates);
  std::vector<sp::dist::TaskResult> first(sq.unique.size());
  std::vector<double> queue_wait_ms;
  std::size_t retries = 0, forfeits = 0, hits = 0;

  // One closed-loop client: each request is submitted once the previous
  // result is back.  submit() drives the service on this thread.
  auto loop = [&](sp::dist::ClusterHandle& h, bool traced) {
    for (std::size_t i = 0; i < sq.order.size(); ++i) {
      const std::size_t u = sq.order[i];
      const auto& d = sq.unique[u];
      sp::dist::RunMetrics m;
      sp::dist::TaskResult r;
      Op op = timed("", traced, [&] {
        Span s("dist.request");
        r = h.submit(d, 0, &m);
        return std::string();
      });
      op.kind = m.cache_hits ? "hit"
                : d.task_kind == sp::dist::TaskKind::kSstaGrid ? "grid_miss"
                                                                : "mc_miss";
      if (sq.repeat[i] && !m.cache_hits)
        ck.expect("repeat_served_from_cache_" + std::to_string(i), false,
                  "exact repeat was recomputed");
      if (traced) {
        queue_wait_ms.push_back(m.queue_wait_ms);
        retries += m.retries;
        forfeits += m.forfeits;
        hits += m.cache_hits;
      }
      if (!traced && !sq.repeat[i]) {
        first[u] = std::move(r);
      } else if (!sp::dist::bitwise_equal(r, first[u])) {
        ck.expect("request_bitwise_" + std::to_string(i), false,
                  "result differs from the first answer to this descriptor");
      }
      rec.ops.push_back(op);
    }
  };

  loop(*fleet, false);
  if (a.trace) {
    // A fresh fleet (empty cache) replays the same sequence traced.
    fleet->close();
    fleet = start_fleet(a);
    sp::obs::reset();
    sp::obs::set_enabled(true);
    g_tracer.enable(true);
    loop(*fleet, true);
    g_tracer.enable(false);
    sp::obs::set_enabled(false);
    rec.obs = obs_json();
    rec.layer.raw("dist.queue_wait_ms", num_array(queue_wait_ms));
    rec.layer.u("dist.retries", retries);
    rec.layer.u("dist.forfeits", forfeits);
    rec.layer.u("dist.cache_hits", hits);
  }
  fleet->close();
  fleet.reset();

  // Reference: every distinct request recomputed in-process by
  // run_local_task on this process's pool (1 thread), outside the loop.
  // Its CPU time is summed per request so that the host-speed probe can
  // run between requests, outside the timing.
  std::size_t mismatches = 0;
  double ref_cpu_s = 0.0;
  HostProbe probe;
  for (std::size_t u = 0; u < sq.unique.size(); ++u) {
    const double c0 = process_cpu_s();
    const sp::dist::TaskResult ref = sp::dist::run_local_task(sq.unique[u]);
    ref_cpu_s += process_cpu_s() - c0;
    if (!sp::dist::bitwise_equal(ref, first[u])) ++mismatches;
    if (u % 10 == 0) probe.sample();
  }
  rec.layer.f("local_reference_cpu_s", ref_cpu_s);
  rec.layer.raw("local_reference_probe_s", num_array(probe.samples));
  rec.layer.u("local_reference_requests", sq.unique.size());
  ck.expect("service_results_bitwise_vs_run_local_task", mismatches == 0,
            std::to_string(mismatches) + " of " +
                std::to_string(sq.unique.size()) + " distinct results differ");
  rec.layer.u("mc_dies_per_miss", kServiceDies);
  rec.peak_rss_mb =
      rss_mb(RUSAGE_SELF) + kWorkers * rss_mb(RUSAGE_CHILDREN);
  return rec;
}

#if defined(__clang__)
const char* const kCompiler = "clang " __VERSION__;
#else
const char* const kCompiler = "gcc " __VERSION__;
#endif

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: statbench_flows --workload opt_flow|mc_spatial|"
               "service_mix --seed S --seconds T --threads N --mode "
               "time|trace [--worker-bin PATH] [--setup-reps K]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  std::string mode = "time";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (arg == "--workload") a.workload = v;
    else if (arg == "--seed") a.seed = std::stoull(v);
    else if (arg == "--seconds") a.seconds = std::stod(v);
    else if (arg == "--threads") a.threads = std::stoull(v);
    else if (arg == "--mode") mode = v;
    else if (arg == "--worker-bin") a.worker_bin = v;
    else if (arg == "--setup-reps") a.setup_reps = std::stoi(v);
    else usage();
  }
  if (mode != "time" && mode != "trace") usage();
  if (a.threads == 0 || a.seconds <= 0.0) usage();
  a.trace = mode == "trace";
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // Pool width is fixed at the pool's first use; set it before that.
  ::setenv("STATPIPE_THREADS", std::to_string(a.threads).c_str(), 1);
  try {
    const auto& kt = sp::stats::simd::kernels();
    const std::size_t pool = sp::sim::ThreadPool::shared().thread_count();
    Checks ck;
    Record rec;
    if (a.workload == "opt_flow") {
      rec = run_opt_flow(a, ck);
    } else if (a.workload == "mc_spatial") {
      rec = run_mc_spatial(a, ck);
    } else if (a.workload == "service_mix") {
      if (a.worker_bin.empty()) usage();
      rec = run_service_mix(a, ck);
    } else {
      usage();
    }
    Obj env;
    env.str("simd_backend", kt.name)
        .u("simd_max_width", kt.max_width)
        .u("block_width", sp::stats::lanes::preferred_width())
        .u("pool_threads", pool)
        .u("hardware_threads", std::thread::hardware_concurrency())
        .str("compiler", kCompiler)
        .str("build_type", STATBENCH_BUILD_TYPE);
    Obj out;
    out.str("workload", a.workload)
        .u("seed", a.seed)
        .u("threads", a.threads)
        .str("mode", a.trace ? "trace" : "time")
        .raw("env", env.json())
        .u("busy_threads", a.workload == "service_mix" ? kWorkers + 1
                                                        : a.threads)
        .raw("setup", ops_json(rec.setup))
        .raw("ops", ops_json(rec.ops))
        .raw("layer", rec.layer.json())
        .raw("quality", rec.quality.json())
        .raw("checks", array(ck.items))
        .u("attempted", ck.attempted)
        .u("failed", ck.failed)
        .f("peak_rss_mb", rec.peak_rss_mb)
        .raw("spans", g_tracer.json())
        .raw("obs", rec.obs.empty() ? "null" : rec.obs);
    std::printf("%s\n", out.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statbench_flows: %s\n", e.what());
    return 1;
  }
}
