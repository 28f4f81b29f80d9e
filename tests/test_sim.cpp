// Tests for the parallel simulation engine: the thread pool, the shard
// scheduler, deterministic RNG stream splitting, mergeable accumulators and
// the thread-count-invariance of the Monte-Carlo engines.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/pipeline_model.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace sp = statpipe;
using sp::core::LatchOverhead;
using sp::core::PipelineModel;
using sp::core::StageModel;
using sp::stats::Gaussian;

// ------------------------------------------------------------- thread pool

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  sp::sim::ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  sp::sim::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(
                   64,
                   [&](std::size_t i) {
                     if (i == 13) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
}

TEST(ThreadPool, NestedCallsRunInline) {
  sp::sim::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(8, [&](std::size_t outer) {
    pool.parallel_for(8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadPoolDegradesToSerial) {
  sp::sim::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int sum = 0;
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

// -------------------------------------------------- STATPIPE_THREADS parsing

TEST(ThreadPoolEnv, AcceptsPositiveIntegers) {
  EXPECT_EQ(sp::sim::parse_thread_count("1"), 1u);
  EXPECT_EQ(sp::sim::parse_thread_count("8"), 8u);
  EXPECT_EQ(sp::sim::parse_thread_count("  16  "), 16u);
  EXPECT_EQ(sp::sim::parse_thread_count("0064"), 64u);
}

TEST(ThreadPoolEnv, RejectsGarbageZeroAndNegative) {
  for (const char* bad : {"", "   ", "abc", "4x", "4 threads", "1.5", "-2",
                          "-0", "0", "0x8", "99999999999999999999999"}) {
    EXPECT_THROW(sp::sim::parse_thread_count(bad), std::invalid_argument)
        << "value: '" << bad << "'";
  }
  EXPECT_THROW(sp::sim::parse_thread_count(nullptr), std::invalid_argument);
  // The error message must name the offending value.
  try {
    sp::sim::parse_thread_count("banana");
    FAIL() << "must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------- shard planning

TEST(Shards, CoverRangeDisjointly) {
  const auto shards = sp::sim::plan_shards(10000, 1024);
  EXPECT_EQ(shards.size(), 10u);
  std::size_t expect_begin = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(shards[i].index, i);
    EXPECT_EQ(shards[i].begin, expect_begin);
    expect_begin += shards[i].count;
  }
  EXPECT_EQ(expect_begin, 10000u);
  EXPECT_EQ(shards.back().count, 10000u - 9u * 1024u);
}

TEST(Shards, SmallRunIsOneShard) {
  const auto shards = sp::sim::plan_shards(5, 1024);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].count, 5u);
}

TEST(Shards, RejectsDegenerateInputs) {
  EXPECT_THROW(sp::sim::plan_shards(0, 16), std::invalid_argument);
  EXPECT_THROW(sp::sim::plan_shards(16, 0), std::invalid_argument);
  EXPECT_THROW(sp::sim::shard_count(0, 16), std::invalid_argument);
  EXPECT_THROW(sp::sim::shard_count(16, 0), std::invalid_argument);
}

TEST(Shards, SubrangePlanMatchesFullPlanSlice) {
  // plan_shard_range must mint exactly the shards plan_shards would — the
  // distributed workers rely on this to replay the coordinator's plan
  // without materializing all of it.
  const std::size_t n = 10000, per = 1024;
  const auto full = sp::sim::plan_shards(n, per);
  EXPECT_EQ(sp::sim::shard_count(n, per), full.size());
  for (const auto& [b, e] :
       {std::pair<std::size_t, std::size_t>{0, full.size()}, {3, 7}, {9, 10}}) {
    const auto sub = sp::sim::plan_shard_range(n, per, b, e);
    ASSERT_EQ(sub.size(), e - b);
    for (std::size_t i = 0; i < sub.size(); ++i) {
      EXPECT_EQ(sub[i].index, full[b + i].index);
      EXPECT_EQ(sub[i].begin, full[b + i].begin);
      EXPECT_EQ(sub[i].count, full[b + i].count);
    }
  }
  EXPECT_THROW(sp::sim::plan_shard_range(n, per, 5, 5),
               std::invalid_argument);
  EXPECT_THROW(sp::sim::plan_shard_range(n, per, 0, full.size() + 1),
               std::invalid_argument);
}

// ------------------------------------------------------------ RNG streams

TEST(RngStreams, ForkByIdIsReproducible) {
  sp::stats::Rng a(12345);
  (void)a.normal();  // draw position must not matter for fork(id)
  (void)a.normal();
  sp::stats::Rng b(12345);
  auto s1 = a.fork(7).normal_vector(32);
  auto s2 = b.fork(7).normal_vector(32);
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]);
}

TEST(RngStreams, DistinctIdsAreUncorrelated) {
  sp::stats::Rng root(99);
  constexpr std::size_t n = 20000;
  auto a = root.fork(0).normal_vector(n);
  auto b = root.fork(1).normal_vector(n);
  // Cross-correlation of independent streams ~ N(0, 1/n): |rho| < 4/sqrt(n).
  EXPECT_LT(std::abs(sp::stats::pearson(a, b)), 4.0 / std::sqrt(double(n)));
  // And each stream is itself standard normal to sampling accuracy.
  EXPECT_NEAR(sp::stats::mean(a), 0.0, 0.03);
  EXPECT_NEAR(sp::stats::stddev(a), 1.0, 0.03);
}

TEST(RngStreams, AdjacentSeedsGiveDistinctStreams) {
  // splitmix avalanche: nearby seeds and ids must not alias.
  sp::stats::Rng r1(1), r2(2);
  auto a = r1.fork(0).normal_vector(1000);
  auto b = r2.fork(0).normal_vector(1000);
  EXPECT_LT(std::abs(sp::stats::pearson(a, b)), 0.13);
  EXPECT_NE(a[0], b[0]);
}

// --------------------------------------------------- mergeable accumulators

TEST(RunningStatsMerge, MatchesSinglePass) {
  sp::stats::Rng rng(7);
  std::vector<double> all;
  sp::stats::RunningStats whole;
  std::vector<sp::stats::RunningStats> parts(7);
  for (std::size_t i = 0; i < 10001; ++i) {
    const double x = rng.normal(3.0, 2.0) + rng.uniform();
    all.push_back(x);
    whole.add(x);
    parts[i % parts.size()].add(x);
  }
  sp::stats::RunningStats merged;
  for (const auto& p : parts) merged.merge(p);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-10 * std::abs(whole.mean()));
  EXPECT_NEAR(merged.variance(), whole.variance(),
              1e-9 * whole.variance());
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  // And both agree with the two-pass reference.
  EXPECT_NEAR(merged.mean(), sp::stats::mean(all), 1e-9);
  EXPECT_NEAR(merged.variance(), sp::stats::variance(all), 1e-8);
}

TEST(RunningStatsMerge, EmptySidesAreNeutral) {
  sp::stats::RunningStats a, b, empty;
  a.add(1.0);
  a.add(3.0);
  b = a;
  b.merge(empty);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), a.mean());
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), a.mean());
}

TEST(McResultMerge, CombinesSamplesAndStats) {
  sp::mc::McResult a, b;
  a.stage_stats.resize(2);
  b.stage_stats.resize(2);
  a.tp_samples = {1.0, 2.0};
  b.tp_samples = {3.0};
  a.stage_stats[0].add(1.0);
  b.stage_stats[0].add(3.0);
  a.merge(std::move(b));
  EXPECT_EQ(a.tp_samples.size(), 3u);
  EXPECT_EQ(a.stage_stats[0].count(), 2u);
  EXPECT_NEAR(a.stage_stats[0].mean(), 2.0, 1e-12);

  sp::mc::McResult mismatched;
  mismatched.stage_stats.resize(3);
  sp::mc::McResult c;
  c.stage_stats.resize(2);
  EXPECT_THROW(c.merge(std::move(mismatched)), std::invalid_argument);
}

// ------------------------------------------- degenerate-run error reporting

TEST(McResultDegenerate, EmptyRunsFailFastWithRunName) {
  sp::mc::McResult empty;
  empty.label = "smoke-run";
  EXPECT_THROW(empty.yield_at(100.0), std::logic_error);
  EXPECT_THROW(empty.yield_ci95(100.0), std::logic_error);
  try {
    empty.tp_estimate();
    FAIL() << "tp_estimate on empty run must throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("smoke-run"), std::string::npos)
        << "error must name the offending run: " << e.what();
  }
  empty.tp_samples.push_back(1.0);  // one sample: still too small to estimate
  EXPECT_THROW(empty.tp_estimate(), std::logic_error);
  EXPECT_NO_THROW(empty.yield_at(100.0));
}

// ------------------------------------------------ thread-count determinism

namespace {

PipelineModel small_pipeline() {
  std::vector<StageModel> s;
  for (int i = 0; i < 5; ++i)
    s.emplace_back("s" + std::to_string(i), Gaussian{150.0 + 5.0 * i, 6.0},
                   3.0, 50.0);
  return PipelineModel(std::move(s), LatchOverhead{40.0, 0.0, 0.5});
}

template <typename Mc>
void expect_bitwise_identical_runs(const Mc& mc, std::size_t n_samples) {
  // Vary thread count AND block width together: both are pure throughput
  // knobs, so the wide run (8 threads, 16-wide SoA blocks) must be
  // bitwise-equal to the serial scalar run (1 thread, width 1).
  sp::sim::ExecutionOptions serial, wide;
  serial.threads = 1;
  serial.block_width = 1;
  wide.threads = 8;
  wide.block_width = 16;
  serial.samples_per_shard = wide.samples_per_shard = 256;

  sp::stats::Rng rng1(4242), rng2(4242);
  const auto r1 = mc.run(n_samples, rng1, serial);
  const auto r2 = mc.run(n_samples, rng2, wide);

  ASSERT_EQ(r1.tp_samples.size(), n_samples);
  ASSERT_EQ(r2.tp_samples.size(), n_samples);
  for (std::size_t i = 0; i < n_samples; ++i)
    ASSERT_EQ(r1.tp_samples[i], r2.tp_samples[i]) << "sample " << i;
  ASSERT_EQ(r1.stage_stats.size(), r2.stage_stats.size());
  for (std::size_t s = 0; s < r1.stage_stats.size(); ++s) {
    EXPECT_EQ(r1.stage_stats[s].count(), r2.stage_stats[s].count());
    EXPECT_EQ(r1.stage_stats[s].mean(), r2.stage_stats[s].mean());
    EXPECT_EQ(r1.stage_stats[s].variance(), r2.stage_stats[s].variance());
    EXPECT_EQ(r1.stage_stats[s].min(), r2.stage_stats[s].min());
    EXPECT_EQ(r1.stage_stats[s].max(), r2.stage_stats[s].max());
  }
}

}  // namespace

TEST(Determinism, StageLevelMcIsThreadCountInvariant) {
  const auto p = small_pipeline();
  sp::mc::StageLevelMonteCarlo mc(p);
  expect_bitwise_identical_runs(mc, 5000);
}

TEST(Determinism, GateLevelMcIsThreadCountInvariant) {
  std::vector<sp::netlist::Netlist> stages;
  for (int i = 0; i < 3; ++i) stages.push_back(sp::netlist::inverter_chain(6));
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);
  expect_bitwise_identical_runs(mc, 1500);
}

TEST(Determinism, SameSeedSameResultAcrossShardCaps) {
  // Shard size IS part of the stream layout: identical values give
  // identical runs...
  const auto p = small_pipeline();
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::sim::ExecutionOptions a, b;
  a.samples_per_shard = b.samples_per_shard = 512;
  a.threads = 2;
  b.threads = 4;
  sp::stats::Rng r1(7), r2(7);
  const auto x = mc.run(2048, r1, a);
  const auto y = mc.run(2048, r2, b);
  for (std::size_t i = 0; i < x.tp_samples.size(); ++i)
    ASSERT_EQ(x.tp_samples[i], y.tp_samples[i]);
  // ...and statistics stay sane either way.
  EXPECT_NEAR(x.tp_estimate().mean, p.delay_distribution().mean,
              0.02 * p.delay_distribution().mean);
}
