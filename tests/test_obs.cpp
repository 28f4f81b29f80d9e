// Telemetry subsystem tests (src/obs): the out-of-band contract.  The
// load-bearing property is INVARIANCE — results are bitwise-identical with
// telemetry enabled and disabled at every thread count, block width and
// process count (docs/OBSERVABILITY.md, docs/DETERMINISM.md) — plus exact
// counter folding under concurrent increments, span aggregate arithmetic,
// Chrome trace-event well-formedness and the pinned
// "statpipe-metrics-v1" snapshot schema.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/cluster.h"
#include "dist/serialize.h"
#include "dist/task.h"
#include "dist/workload.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "opt/sizer.h"
#include "sim/engine.h"
#include "stats/rng.h"

namespace sp = statpipe;

namespace {

// Every test starts from a clean, DISABLED telemetry state and leaves it
// that way: obs state is process-global, and a leaked enable would make
// later tests measure each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sp::obs::set_enabled(false);
    sp::obs::reset();
  }
  void TearDown() override {
    sp::obs::set_enabled(false);
    sp::obs::reset();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

// Minimal structural JSON validator: strings (with escapes) are skipped,
// braces/brackets must nest and match.  Not a grammar check — it is the
// cheap well-formedness gate; tools/trace_check.py does the full parse in
// CI with a real JSON library.
bool json_balanced(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;  // skip the escaped char
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

sp::mc::McResult run_mc(const sp::netlist::Netlist& nl, std::size_t threads,
                        std::size_t width) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.010;  // exercise mc.chol spans too
  spec.enable_rdf = true;
  const std::vector<const sp::netlist::Netlist*> stages{&nl};
  const sp::mc::GateLevelMonteCarlo mc(stages, model, spec, latch);
  sp::sim::ExecutionOptions exec;
  exec.threads = threads;
  exec.samples_per_shard = 128;
  exec.block_width = width;
  sp::stats::Rng rng(20260808);
  return mc.run(1024, rng, exec);
}

sp::dist::RunDescriptor small_descriptor() {
  sp::dist::RunDescriptor d;
  d.workload = "c432";
  d.seed = 20260808;
  d.n_samples = 512;
  d.samples_per_shard = 64;
  d.block_width = 8;
  d.sigma_vth_inter = 0.020;
  d.sigma_vth_systematic = 0.010;
  d.enable_rdf = 1;
  sp::dist::finalize_descriptor(d);
  return d;
}

}  // namespace

// ------------------------------------------------------ counters & spans

// The fold is exact under concurrent increments: N threads hammering one
// counter (and one private counter each) must sum to exactly what was
// added — per-thread cells are single-writer, so nothing can be lost.
TEST_F(ObsTest, CounterFoldExactUnderConcurrentIncrements) {
  sp::obs::set_enabled(true);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  static sp::obs::Counter shared("test.obs.shared");
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) shared.add();
    });
  for (auto& t : ts) t.join();
  const auto snap = sp::obs::snapshot();
  EXPECT_EQ(snap.counter("test.obs.shared"), kThreads * kPerThread);
}

// add(n) accumulates weights, counters from exited threads are retained,
// and reset() zeroes values without unregistering names.
TEST_F(ObsTest, CounterWeightsAndRetiredThreadsAndReset) {
  sp::obs::set_enabled(true);
  static sp::obs::Counter c("test.obs.weighted");
  std::thread([&] { c.add(40); }).join();  // exits before the snapshot
  c.add(2);
  EXPECT_EQ(sp::obs::snapshot().counter("test.obs.weighted"), 42u);
  sp::obs::reset();
  const auto snap = sp::obs::snapshot();
  // Still registered (full-vocabulary snapshots), but zeroed.
  bool found = false;
  for (const auto& cv : snap.counters)
    if (cv.name == "test.obs.weighted") found = true;
  EXPECT_TRUE(found);
  EXPECT_EQ(snap.counter("test.obs.weighted"), 0u);
}

// Disabled telemetry records nothing — the single-branch no-op contract.
TEST_F(ObsTest, DisabledRecordsNothing) {
  static sp::obs::Counter c("test.obs.gated");
  static const sp::obs::SpanId kSpan("test.obs.gated_span");
  c.add(7);
  {
    sp::obs::ScopedSpan span(kSpan);
  }
  const auto snap = sp::obs::snapshot();
  EXPECT_EQ(snap.counter("test.obs.gated"), 0u);
  EXPECT_EQ(snap.span("test.obs.gated_span").count, 0u);
}

// Span aggregates fold count/total/min/max exactly from explicit
// timestamps (record_span is the cross-scope entry ScopedSpan wraps).
TEST_F(ObsTest, SpanAggregateArithmetic) {
  sp::obs::set_enabled(true);
  static const sp::obs::SpanId kSpan("test.obs.span_math");
  sp::obs::record_span(kSpan, 1000, 1500);         // 500 ns
  sp::obs::record_span(kSpan, 2000, 2100, 3);      // 100 ns, lane 3
  sp::obs::record_span(kSpan, 5000, 5900, -1, false);  // 900 ns, no trace
  const auto st = sp::obs::snapshot().span("test.obs.span_math");
  EXPECT_EQ(st.count, 3u);
  EXPECT_EQ(st.total_ns, 1500u);
  EXPECT_EQ(st.min_ns, 100u);
  EXPECT_EQ(st.max_ns, 900u);
}

// ------------------------------------------------------------- exporters

// The metrics snapshot schema is pinned: "statpipe-metrics-v1" with
// name-keyed counters and {count,total_ns,min_ns,max_ns} span objects.
// Downstream consumers (tools/trace_check.py --metrics, bench records,
// CI artifacts) parse this shape; changing it is a versioned event.
TEST_F(ObsTest, MetricsJsonSchemaPin) {
  sp::obs::set_enabled(true);
  static sp::obs::Counter c("test.obs.schema_counter");
  static const sp::obs::SpanId kSpan("test.obs.schema_span");
  c.add(5);
  sp::obs::record_span(kSpan, 100, 350);
  const std::string json = sp::obs::metrics_json(sp::obs::snapshot());
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("{\"schema\":\"statpipe-metrics-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"spans\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.schema_counter\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.schema_span\":{\"count\":1,"
                      "\"total_ns\":250,\"min_ns\":250,\"max_ns\":250}"),
            std::string::npos);
  // write_metrics_json produces the same bytes (plus trailing newline).
  const std::string path = temp_path("metrics_pin.json");
  sp::obs::write_metrics_json(path);
  EXPECT_EQ(read_file(path), json + "\n");
  std::remove(path.c_str());
}

// A trace exported from a real instrumented MC run is structurally valid
// Chrome trace-event JSON carrying the span vocabulary the engine emits.
TEST_F(ObsTest, ChromeTraceWellFormedFromEngineRun) {
  sp::obs::set_enabled(true);
  const auto nl = sp::netlist::iscas_like("c432");
  run_mc(nl, 2, 8);
  sp::obs::log_warn("test", "instant \"event\" with\nescapes\t\\");
  const std::string path = temp_path("trace.json");
  sp::obs::write_chrome_trace(path);
  const std::string trace = read_file(path);
  std::remove(path.c_str());
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(json_balanced(trace)) << "unbalanced trace JSON";
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  for (const char* needle :
       {"\"ph\":\"M\"", "\"ph\":\"X\"", "\"ph\":\"i\"", "\"name\":\"mc.draw\"",
        "\"name\":\"mc.chol\"", "\"name\":\"mc.walk\"",
        "\"name\":\"mc.fold\"", "\"args\":{\"lane\":"})
    EXPECT_NE(trace.find(needle), std::string::npos) << needle;
}

// ------------------------------------------------- the invariance matrix

// THE tentpole property: enabling telemetry changes no result bit.  Same
// seed, {1,8} threads x {1,16} block widths, each run twice — telemetry
// off, then on (counters, spans and trace events all live) — and every
// pair must be bitwise-identical.  All eight runs must also agree with
// each other (the existing thread/width invariance, now under telemetry).
// A size_stage_grid leg holds the optimizer to the same rule.
TEST_F(ObsTest, EnabledDisabledBitwiseInvarianceMatrix) {
  const auto nl = sp::netlist::iscas_like("c432");
  sp::mc::McResult reference;
  bool have_reference = false;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (std::size_t width : {std::size_t{1}, std::size_t{16}}) {
      sp::obs::set_enabled(false);
      const sp::mc::McResult off = run_mc(nl, threads, width);
      sp::obs::set_enabled(true);
      sp::obs::reset();
      const sp::mc::McResult on = run_mc(nl, threads, width);
      // Telemetry actually recorded something in the "on" leg (one-lane
      // blocks draw through the block path too)...
      const auto snap = sp::obs::snapshot();
      EXPECT_EQ(snap.counter("mc.samples"), 1024u);
      EXPECT_GT(snap.span("mc.draw").count, 0u);
      EXPECT_GT(snap.span("mc.shard").count, 0u);
      sp::obs::set_enabled(false);
      // ...and changed nothing.
      EXPECT_TRUE(sp::dist::bitwise_equal(off, on))
          << "telemetry changed results at threads=" << threads
          << " width=" << width;
      if (!have_reference) {
        reference = off;
        have_reference = true;
      } else {
        EXPECT_TRUE(sp::dist::bitwise_equal(reference, off))
            << "thread/width variance at threads=" << threads
            << " width=" << width;
      }
    }
  }

  // The optimizer's leg: a size_stage_grid run, off then on.
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::opt::SizerOptions so;
  const double d0 = sp::opt::stat_delay(nl, model, spec, so.yield_target);
  const std::vector<double> targets{d0 * 0.8, d0, d0 * 1.2};
  sp::obs::set_enabled(false);
  const auto grid_off = sp::opt::size_stage_grid(nl, model, spec, so, targets);
  sp::obs::set_enabled(true);
  sp::obs::reset();
  const auto grid_on = sp::opt::size_stage_grid(nl, model, spec, so, targets);
  const auto snap = sp::obs::snapshot();
  sp::obs::set_enabled(false);
  std::uint64_t iterations = 0;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const auto& off = grid_off[k];
    const auto& on = grid_on[k];
    EXPECT_EQ(off.sizes, on.sizes) << "lane " << k;
    EXPECT_EQ(off.result.iterations, on.result.iterations);
    EXPECT_EQ(off.result.area, on.result.area);
    EXPECT_EQ(off.result.stat_delay, on.result.stat_delay);
    EXPECT_EQ(off.result.delay.mean, on.result.delay.mean);
    EXPECT_EQ(off.result.delay.sigma, on.result.delay.sigma);
    iterations += on.result.iterations;
  }
  EXPECT_GT(snap.span("opt.size_grid").count, 0u);
  EXPECT_EQ(snap.counter("opt.sizer.iterations"), iterations);
}

// Process-count leg of the matrix: a 2-worker cluster run with telemetry
// fully enabled on the service side reassembles to the exact bytes of
// both the local reference and a telemetry-off cluster run.  Also checks
// the always-on RunMetrics accounting a healthy run must report.  Each leg
// gets a fresh handle: a shared one would answer the second leg from its
// result cache, and the counters below count computed work.
TEST_F(ObsTest, TwoProcessClusterBitwiseInvariant) {
  const auto desc = small_descriptor();
  const sp::mc::McResult local = sp::dist::run_local(desc);

  sp::dist::ClusterOptions opt;
  opt.spawn_workers = 2;
  opt.worker_bin = STATPIPE_WORKER_BIN;
  opt.coordinator.units_per_range = 2;
  opt.coordinator.idle_timeout_ms = 120000;
  auto run_leg = [&](sp::dist::RunMetrics* rm, sp::dist::TaskResult* out) {
    sp::dist::ClusterHandle handle(opt);
    // Admit both spawned workers before submitting: otherwise one of them
    // can finish every range before the other connects.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    handle.serve([&] {
      return handle.stats().workers_admitted >= 2 ||
             std::chrono::steady_clock::now() > deadline;
    });
    ASSERT_EQ(handle.stats().workers_admitted, 2u);
    *out = handle.submit(desc, 0, rm);
  };

  sp::obs::set_enabled(false);
  sp::dist::RunMetrics rm_off;
  sp::dist::TaskResult off;
  run_leg(&rm_off, &off);
  ASSERT_FALSE(HasFatalFailure());

  sp::obs::set_enabled(true);
  sp::obs::reset();
  sp::dist::RunMetrics rm_on;
  sp::dist::TaskResult on;
  run_leg(&rm_on, &on);
  const auto snap = sp::obs::snapshot();
  sp::obs::set_enabled(false);
  ASSERT_FALSE(HasFatalFailure());

  EXPECT_TRUE(sp::dist::bitwise_equal(off.mc, local));
  EXPECT_TRUE(sp::dist::bitwise_equal(on.mc, local))
      << "telemetry changed the distributed result";

  // RunMetrics is always on — both legs account identically.
  for (const auto* rm : {&rm_off, &rm_on}) {
    EXPECT_EQ(rm->units, 8u);   // 512 samples / 64 per shard
    EXPECT_EQ(rm->ranges, 4u);  // units_per_range = 2
    EXPECT_EQ(rm->commits, rm->ranges);
    EXPECT_GE(rm->assigns, rm->ranges);
    EXPECT_EQ(rm->forfeits, 0u);
    EXPECT_EQ(rm->units_discarded, 0u);
    EXPECT_EQ(rm->workers_admitted, 2u);
    EXPECT_GE(rm->peak_staged_units, 1u);
    EXPECT_GT(rm->wall_ms, 0.0);
  }
  // The obs layer saw the coordinator's traffic in the enabled leg.
  EXPECT_EQ(snap.counter("dist.commits"), 4u);
  EXPECT_EQ(snap.counter("dist.units_committed"), 8u);
  EXPECT_EQ(snap.span("dist.range").count, 4u);
  EXPECT_GT(snap.counter("dist.tx_frames"), 0u);
  EXPECT_GT(snap.counter("dist.rx_bytes"), 0u);
}
