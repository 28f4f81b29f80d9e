// Tests for the Monte-Carlo engines — and the paper's section-2.4 model
// verification: analytical (mu_T, sigma_T, yield) vs MC at both stage and
// gate granularity.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>

#include "core/characterized_pipeline.h"
#include "core/pipeline_model.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "sta/sta.h"
#include "stats/ks.h"
#include "stats/lanes.h"

namespace sp = statpipe;
using sp::core::LatchOverhead;
using sp::core::PipelineModel;
using sp::core::StageModel;
using sp::stats::Gaussian;

namespace {

PipelineModel small_pipeline(double sigma_inter_frac) {
  std::vector<StageModel> s;
  for (int i = 0; i < 5; ++i) {
    const double mu = 150.0 + 5.0 * i;
    const double sg = 6.0;
    s.emplace_back("s" + std::to_string(i), Gaussian{mu, sg},
                   sigma_inter_frac * sg, 50.0);
  }
  return PipelineModel(std::move(s), LatchOverhead{40.0, 0.0, 0.5});
}

}  // namespace

// ------------------------------------------------------------- stage level

TEST(StageMc, EstimateMatchesAnalyticalIndependent) {
  const auto p = small_pipeline(0.0);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(101);
  const auto r = mc.run(100000, rng);
  const auto analytic = p.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.003 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.06 * est.sigma);
}

TEST(StageMc, EstimateMatchesAnalyticalCorrelated) {
  const auto p = small_pipeline(0.8);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(102);
  const auto r = mc.run(100000, rng);
  const auto analytic = p.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.003 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.08 * est.sigma);
}

TEST(StageMc, YieldMatchesEq9) {
  const auto p = small_pipeline(0.5);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(103);
  const auto r = mc.run(100000, rng);
  for (double t : {195.0, 200.0, 205.0, 210.0}) {
    EXPECT_NEAR(p.yield(t), r.yield_at(t), 0.02) << "t=" << t;
  }
}

TEST(StageMc, PerStageStatsMatchInputs) {
  const auto p = small_pipeline(0.3);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(104);
  const auto r = mc.run(50000, rng);
  ASSERT_EQ(r.stage_stats.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto sd = p.stage_delay(i);
    EXPECT_NEAR(r.stage_stats[i].mean(), sd.mean, 0.005 * sd.mean);
    EXPECT_NEAR(r.stage_stats[i].stddev(), sd.sigma, 0.05 * sd.sigma);
  }
}

TEST(StageMc, CiShrinksWithSamples) {
  const auto p = small_pipeline(0.0);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(105);
  const auto small = mc.run(1000, rng);
  const auto large = mc.run(16000, rng);
  const double t = 205.0;
  EXPECT_NEAR(small.yield_ci95(t) / large.yield_ci95(t), 4.0, 1.5);
}

TEST(StageMc, DistributionIsApproximatelyGaussian) {
  // The basis of eq. (9): T_P is well-approximated by a Gaussian.
  const auto p = small_pipeline(0.5);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(106);
  const auto r = mc.run(50000, rng);
  const double ks = sp::stats::ks_distance(r.tp_samples, r.tp_estimate());
  EXPECT_LT(ks, 0.03);
}

// Per die the sampler draws Z, then e_1..e_n, as one normal_fill of n + 1
// values from the shard stream, and sets SD_i = mean + shared Z +
// independent e_i (docs/DETERMINISM.md).  One shard: the stream is
// rng.fork().fork(0).
TEST(StageMc, DrawsSharedThenPrivateNormalsPerDie) {
  const auto p = small_pipeline(0.4);
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(107), ref_rng(107);
  const auto r = mc.run(300, rng);
  sp::stats::Rng shard = ref_rng.fork().fork(0);
  std::vector<double> z;
  for (std::size_t k = 0; k < 300; ++k) {
    shard.normal_fill(z, p.stage_count() + 1);
    double tp = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < p.stage_count(); ++i) {
      const auto f = p.stage_factors(i);
      tp = std::max(tp, f.mean + f.shared * z[0] + f.independent * z[i + 1]);
    }
    ASSERT_EQ(r.tp_samples[k], tp) << "die " << k;
  }
}

namespace {

// Identical stages that share all their variation must draw identical
// delays: every stage's accumulator ends bit for bit the same.
void expect_stage_stats_identical(const PipelineModel& p) {
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(108);
  const auto r = mc.run(5000, rng);
  ASSERT_EQ(r.stage_stats.size(), p.stage_count());
  const auto& a = r.stage_stats[0];
  EXPECT_GT(a.variance(), 0.0);
  for (std::size_t i = 1; i < r.stage_stats.size(); ++i) {
    const auto& b = r.stage_stats[i];
    EXPECT_EQ(a.count(), b.count()) << "stage " << i;
    EXPECT_EQ(a.mean(), b.mean()) << "stage " << i;
    EXPECT_EQ(a.variance(), b.variance()) << "stage " << i;
    EXPECT_EQ(a.min(), b.min()) << "stage " << i;
    EXPECT_EQ(a.max(), b.max()) << "stage " << i;
  }
}

PipelineModel identical_stages(double sigma_inter, LatchOverhead latch) {
  std::vector<StageModel> s;
  for (int i = 0; i < 4; ++i)
    s.emplace_back("s" + std::to_string(i), Gaussian{150.0, 6.0}, sigma_inter,
                   50.0);
  return PipelineModel(std::move(s), latch);
}

}  // namespace

TEST(StageMc, PerfectUniformCorrelationDrawsIdenticalStages) {
  auto p = identical_stages(0.0, LatchOverhead{40.0, 0.0, 0.5});
  p.set_uniform_correlation(1.0);
  expect_stage_stats_identical(p);
}

TEST(StageMc, InterOnlyStagesDrawIdenticalStages) {
  // sigma_inter = sigma and a latch without a private part: rho = 1 from
  // the variance decomposition.
  expect_stage_stats_identical(
      identical_stages(6.0, LatchOverhead{40.0, 1.0, 0.0}));
}

// Clark's moments of a two-variable max are exact, so a 2-stage MC must
// land within 4 standard errors of them at any correlation, rho = 1 too.
TEST(StageMc, TwoStageMomentsMatchExactClark) {
  for (const double rho : {0.0, 0.6, 1.0}) {
    std::vector<StageModel> s;
    s.emplace_back("a", Gaussian{100.0, 5.0}, 0.0, 0.0);
    s.emplace_back("b", Gaussian{102.0, 4.0}, 0.0, 0.0);
    PipelineModel p(std::move(s), {});
    p.set_uniform_correlation(rho);
    sp::mc::StageLevelMonteCarlo mc(p);
    sp::stats::Rng rng(static_cast<std::uint64_t>(110 + 10 * rho));
    const auto r = mc.run(100000, rng);
    const auto exact = p.delay_distribution();
    const auto est = r.tp_estimate();
    const double n = static_cast<double>(r.tp_samples.size());
    double m4 = 0.0;  // fourth central moment, for the sigma's error
    for (const double x : r.tp_samples) m4 += std::pow(x - est.mean, 4) / n;
    const double s2 = est.sigma * est.sigma;
    const double se_mean = est.sigma / std::sqrt(n);
    const double se_sigma = std::sqrt((m4 - s2 * s2) / n) / (2.0 * est.sigma);
    EXPECT_NEAR(est.mean, exact.mean, 4.0 * se_mean) << "rho " << rho;
    EXPECT_NEAR(est.sigma, exact.sigma, 4.0 * se_sigma) << "rho " << rho;
  }
}

// -------------------------------------------------------------- gate level

namespace {

struct GateLevelFixture {
  std::vector<sp::netlist::Netlist> stages;
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::device::LatchModel latch{{}, model};

  explicit GateLevelFixture(std::size_t n_stages, std::size_t depth) {
    for (std::size_t i = 0; i < n_stages; ++i) {
      stages.push_back(sp::netlist::inverter_chain(depth));
      stages.back().set_name("stage" + std::to_string(i));
    }
  }
  std::vector<const sp::netlist::Netlist*> views() const {
    std::vector<const sp::netlist::Netlist*> v;
    for (const auto& s : stages) v.push_back(&s);
    return v;
  }
};

}  // namespace

TEST(GateMc, AnalyticalModelTracksGateLevelTruth_IntraOnly) {
  // Fig. 2(a): random intra-die only.
  GateLevelFixture f(5, 8);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(111);
  const auto r = mc.run(3000, rng);

  sp::stats::Rng rng2(112);
  const auto pipe = sp::core::build_pipeline_mc(f.views(), f.model, spec,
                                                f.latch, rng2);
  const auto analytic = pipe.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.01 * est.mean);
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.25 * est.sigma);
}

TEST(GateMc, AnalyticalModelTracksGateLevelTruth_InterOnly) {
  // Fig. 2(b): inter-die only — stage delays fully correlated.
  GateLevelFixture f(5, 8);
  const auto spec = sp::process::VariationSpec::inter_only(0.040);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(113);
  const auto r = mc.run(3000, rng);

  sp::stats::Rng rng2(114);
  const auto pipe = sp::core::build_pipeline_mc(f.views(), f.model, spec,
                                                f.latch, rng2);
  const auto analytic = pipe.delay_distribution();
  const auto est = r.tp_estimate();
  EXPECT_NEAR(analytic.mean, est.mean, 0.01 * est.mean);
  // Inter-only sigma is large (Table I: ~29ps); model should track it.
  EXPECT_NEAR(analytic.sigma, est.sigma, 0.15 * est.sigma);
}

TEST(GateMc, InterOnlyStagesPerfectlyCorrelated) {
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_only(0.040);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(115);
  const auto r = mc.run(2000, rng);
  // All stage means equal, and T_P sigma ~ stage sigma (no averaging).
  const auto est = r.tp_estimate();
  EXPECT_NEAR(est.sigma, r.stage_stats[0].stddev(),
              0.12 * r.stage_stats[0].stddev());
}

TEST(GateMc, YieldCurveMonotone) {
  GateLevelFixture f(4, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(116);
  const auto r = mc.run(2000, rng);
  const auto est = r.tp_estimate();
  double prev = -1.0;
  for (double z = -2.0; z <= 2.01; z += 0.5) {
    const double y = r.yield_at(est.mean + z * est.sigma);
    EXPECT_GE(y, prev);
    prev = y;
  }
}

TEST(GateMc, BlockWidthAndThreadCountInvariant) {
  // The block-vectorized path contract: for a given seed, every
  // (block_width, threads) combination in {1,8,16} x {1,2,8} produces a
  // bitwise-identical McResult.  1000 samples over 128-sample shards leaves
  // a 104-sample final shard, so full blocks and a narrower tail block are
  // exercised at widths 8 and 16.  Width 1 runs one-lane blocks;
  // MatchesPlainScalarReferenceLoopBitwise holds every width to the scalar
  // path.
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  constexpr std::size_t kSamples = 1000;

  auto run_at = [&](std::size_t width, std::size_t threads) {
    sp::sim::ExecutionOptions exec;
    exec.block_width = width;
    exec.threads = threads;
    exec.samples_per_shard = 128;
    sp::stats::Rng rng(31415);
    return mc.run(kSamples, rng, exec);
  };

  const auto ref = run_at(1, 1);
  ASSERT_EQ(ref.tp_samples.size(), kSamples);
  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
      const auto r = run_at(width, threads);
      ASSERT_EQ(r.tp_samples.size(), kSamples);
      for (std::size_t i = 0; i < kSamples; ++i)
        ASSERT_EQ(ref.tp_samples[i], r.tp_samples[i])
            << "width " << width << " threads " << threads << " sample " << i;
      for (std::size_t s = 0; s < ref.stage_stats.size(); ++s) {
        EXPECT_EQ(ref.stage_stats[s].count(), r.stage_stats[s].count());
        EXPECT_EQ(ref.stage_stats[s].mean(), r.stage_stats[s].mean());
        EXPECT_EQ(ref.stage_stats[s].variance(), r.stage_stats[s].variance());
        EXPECT_EQ(ref.stage_stats[s].min(), r.stage_stats[s].min());
        EXPECT_EQ(ref.stage_stats[s].max(), r.stage_stats[s].max());
      }
    }
  }
}

TEST(GateMc, BadBlockWidthIsRejectedUpFront) {
  // block_width outside [1, lanes::max_width()] of the active SIMD backend
  // is a caller bug: it is rejected with a clear error before any
  // sampling, never silently clamped into range (a clamp would quietly
  // change the block grouping the caller thought they configured).
  GateLevelFixture f(2, 4);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(5);
  sp::sim::ExecutionOptions bad;
  bad.block_width = 4096;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  bad.block_width = sp::stats::lanes::max_width() + 1;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  bad.block_width = 0;
  EXPECT_THROW(mc.run(300, rng, bad), std::invalid_argument);
  // The full supported range is accepted and bitwise-equal to one-lane
  // blocks.
  sp::sim::ExecutionOptions max_w, scalar;
  max_w.block_width = sp::stats::lanes::max_width();
  max_w.threads = 1;
  scalar.block_width = 1;
  scalar.threads = 1;
  sp::stats::Rng r1(5), r2(5);
  const auto a = mc.run(300, r1, max_w);
  const auto b = mc.run(300, r2, scalar);
  for (std::size_t i = 0; i < a.tp_samples.size(); ++i)
    ASSERT_EQ(a.tp_samples[i], b.tp_samples[i]);
}

TEST(GateMc, RejectsDegenerateInputs) {
  GateLevelFixture f(2, 4);
  const auto spec = sp::process::VariationSpec::intra_only();
  sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
  sp::stats::Rng rng(117);
  EXPECT_THROW(mc.run(0, rng), std::invalid_argument);
  EXPECT_THROW(sp::mc::GateLevelMonteCarlo({}, f.model, spec, f.latch),
               std::invalid_argument);
  // A NaN output load would make every output arrival NaN, which the
  // output max skips; an infinite one makes every sample infinite.
  for (const double load : {std::nan(""),
                            std::numeric_limits<double>::infinity(), -1.0}) {
    sp::sta::StaOptions bad;
    bad.output_load = load;
    EXPECT_THROW(
        sp::mc::GateLevelMonteCarlo(f.views(), f.model, spec, f.latch, bad),
        std::invalid_argument)
        << "output_load " << load;
  }
}

namespace {

void expect_bitwise_equal(const sp::mc::McResult& want,
                          const sp::mc::McResult& got,
                          const std::string& where) {
  ASSERT_EQ(want.tp_samples.size(), got.tp_samples.size()) << where;
  for (std::size_t i = 0; i < want.tp_samples.size(); ++i)
    ASSERT_EQ(want.tp_samples[i], got.tp_samples[i])
        << where << " sample " << i;
  ASSERT_EQ(want.stage_stats.size(), got.stage_stats.size()) << where;
  for (std::size_t s = 0; s < want.stage_stats.size(); ++s) {
    EXPECT_EQ(want.stage_stats[s].count(), got.stage_stats[s].count());
    EXPECT_EQ(want.stage_stats[s].mean(), got.stage_stats[s].mean())
        << where << " stage " << s;
    EXPECT_EQ(want.stage_stats[s].variance(), got.stage_stats[s].variance());
    EXPECT_EQ(want.stage_stats[s].min(), got.stage_stats[s].min());
    EXPECT_EQ(want.stage_stats[s].max(), got.stage_stats[s].max());
  }
}

}  // namespace

TEST(GateMc, MatchesPlainScalarReferenceLoopBitwise) {
  // The engine's scalar oracle: a plain per-die loop over the engine's site
  // layout and stream keys that draws each die with sample(), times each
  // stage with analyze_sample and adds the latch overhead.  Every block
  // width must reproduce it bit for bit; 350 dies in shards of 100 leave
  // tail blocks of several lengths.
  GateLevelFixture f(3, 6);
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::sta::StaOptions sta_opt;
  sta_opt.output_load = 3.0;
  const sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch,
                                       sta_opt);
  constexpr std::size_t kSamples = 350, kPerShard = 100;
  constexpr std::uint64_t kRootSeed = 0x5EED;

  // Stage s's gates on die segment [s/N, (s+1)/N], its latch at the right
  // edge.
  const std::size_t n = f.stages.size();
  const double n_d = static_cast<double>(n);
  std::vector<double> positions;
  std::vector<std::vector<std::size_t>> site_maps(n);
  std::vector<std::size_t> latch_sites(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double s_d = static_cast<double>(s);
    for (std::size_t g = 0; g < f.stages[s].size(); ++g) {
      site_maps[s].push_back(positions.size());
      positions.push_back((s_d + f.stages[s].gate(g).position) / n_d);
    }
    latch_sites[s] = positions.size();
    positions.push_back((s_d + 1.0) / n_d);
  }
  const sp::process::VariationSampler sampler(f.model.technology(), spec,
                                              positions);

  std::vector<sp::mc::McResult> want;
  const sp::stats::Rng root(kRootSeed);
  for (std::size_t begin = 0; begin < kSamples; begin += kPerShard) {
    const sp::stats::Rng shard_rng = root.fork(want.size());
    sp::mc::McResult r;
    r.stage_stats.resize(n);
    for (std::size_t k = 0; k < std::min(kPerShard, kSamples - begin); ++k) {
      sp::stats::Rng rng = shard_rng.fork(k);
      const sp::process::DieSample die = sampler.sample(rng);
      double tp = 0.0;
      for (std::size_t s = 0; s < n; ++s) {
        const double comb = sp::sta::analyze_sample(f.stages[s], f.model, die,
                                                    site_maps[s], sta_opt)
                                .critical_delay;
        const double sd =
            comb +
            f.latch.sample_overhead(die.dvth_shared_at(latch_sites[s]), rng);
        r.stage_stats[s].add(sd);
        tp = std::max(tp, sd);
      }
      r.tp_samples.push_back(tp);
    }
    want.push_back(std::move(r));
  }

  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8},
                                  sp::stats::lanes::preferred_width()}) {
    sp::sim::ExecutionOptions exec;
    exec.block_width = width;
    exec.samples_per_shard = kPerShard;
    const auto got =
        mc.run_shard_range(kSamples, kRootSeed, 0, want.size(), exec);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      expect_bitwise_equal(want[i], got[i],
                           "width " + std::to_string(width) + " shard " +
                               std::to_string(i));
  }
}

TEST(GateMc, RerunSeesResizedStages) {
  // Every run binds the stages at their current sizes: after set_sizes on
  // one stage, rerunning the same engine must give a fresh engine's bits.
  // 300 dies in shards of 64 leave a tail block at width 5.
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010, 0.5);
  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{5}}) {
    GateLevelFixture f(3, 6);
    const sp::mc::GateLevelMonteCarlo mc(f.views(), f.model, spec, f.latch);
    sp::sim::ExecutionOptions exec;
    exec.block_width = width;
    exec.samples_per_shard = 64;
    sp::stats::Rng r0(2718);
    const auto before = mc.run(300, r0, exec);

    std::vector<double> sizes = f.stages[1].sizes();
    for (double& x : sizes) x *= 2.0;
    f.stages[1].set_sizes(sizes);
    sp::stats::Rng r1(2718), r2(2718);
    const auto rerun = mc.run(300, r1, exec);
    const sp::mc::GateLevelMonteCarlo fresh(f.views(), f.model, spec, f.latch);
    expect_bitwise_equal(fresh.run(300, r2, exec), rerun,
                         "width " + std::to_string(width));
    EXPECT_NE(before.stage_stats[1].mean(), rerun.stage_stats[1].mean());
  }
}

// --------------------------------------------------- merge edge cases

namespace {

sp::mc::McResult make_result(std::uint64_t seed, std::size_t n_samples,
                             std::size_t n_stages) {
  sp::stats::Rng rng(seed);
  sp::mc::McResult r;
  r.stage_stats.resize(n_stages);
  for (std::size_t k = 0; k < n_samples; ++k) {
    double tp = 0.0;
    for (std::size_t s = 0; s < n_stages; ++s) {
      const double sd = rng.normal(200.0 + 10.0 * static_cast<double>(s), 8.0);
      r.stage_stats[s].add(sd);
      tp = std::max(tp, sd);
    }
    r.tp_samples.push_back(tp);
  }
  return r;
}

}  // namespace

TEST(McMerge, EmptyStageStatsMergeLegally) {
  // Stage-stat-free results (stage count 0 on both sides) merge: samples
  // concatenate, nothing else to fold.
  auto a = make_result(1, 10, 0);
  auto b = make_result(2, 7, 0);
  a.merge(std::move(b));
  EXPECT_EQ(a.tp_samples.size(), 17u);
  EXPECT_TRUE(a.stage_stats.empty());
}

TEST(McMerge, StageCountMismatchThrows) {
  auto a = make_result(1, 10, 3);
  auto b = make_result(2, 10, 2);
  auto c = make_result(3, 10, 0);
  EXPECT_THROW(a.merge(std::move(b)), std::invalid_argument);
  EXPECT_THROW(a.merge(std::move(c)), std::invalid_argument);
}

TEST(McMerge, SelfMergeIsRejected) {
  auto a = make_result(1, 10, 2);
  EXPECT_THROW(a.merge(std::move(a)), std::invalid_argument);
  // ...and the failed merge left the result intact.
  EXPECT_EQ(a.tp_samples.size(), 10u);
  EXPECT_EQ(a.stage_stats[0].count(), 10u);
}

TEST(McMerge, MergeOrderAssociativityFuzz) {
  // RunningStats merging is associative only up to floating-point
  // rounding; sample concatenation and counts are exact.  Fuzz random
  // partitions: ((a.b).c) vs (a.(b.c)) must agree exactly on counts and
  // samples, and to ~1e-9 relative on the folded moments.  (This is why
  // every reduction in the library — local and distributed — commits to
  // ONE shape: the ascending-order left fold.)
  std::mt19937_64 g(99);
  for (int rep = 0; rep < 20; ++rep) {
    const std::size_t n_stages = 1 + rep % 3;
    auto a1 = make_result(10 + rep, 5 + g() % 40, n_stages);
    auto b1 = make_result(50 + rep, 5 + g() % 40, n_stages);
    auto c1 = make_result(90 + rep, 5 + g() % 40, n_stages);
    auto a2 = a1, b2 = b1, c2 = c1;

    a1.merge(std::move(b1));
    a1.merge(std::move(c1));  // (a.b).c

    b2.merge(std::move(c2));
    a2.merge(std::move(b2));  // a.(b.c)

    ASSERT_EQ(a1.tp_samples.size(), a2.tp_samples.size());
    for (std::size_t i = 0; i < a1.tp_samples.size(); ++i)
      ASSERT_EQ(a1.tp_samples[i], a2.tp_samples[i]);
    for (std::size_t s = 0; s < n_stages; ++s) {
      ASSERT_EQ(a1.stage_stats[s].count(), a2.stage_stats[s].count());
      EXPECT_NEAR(a1.stage_stats[s].mean(), a2.stage_stats[s].mean(),
                  1e-9 * std::abs(a1.stage_stats[s].mean()));
      EXPECT_NEAR(a1.stage_stats[s].variance(), a2.stage_stats[s].variance(),
                  1e-9 * a1.stage_stats[s].variance() + 1e-12);
      EXPECT_EQ(a1.stage_stats[s].min(), a2.stage_stats[s].min());
      EXPECT_EQ(a1.stage_stats[s].max(), a2.stage_stats[s].max());
    }
  }
}

// --------------------------------------------------- ordering ablation

TEST(ModelVsMc, IncreasingMeanOrderingIsBest) {
  // The paper orders Clark reduction by increasing mean to minimize error
  // (sec. 2.4).  Verify it is at least as good as document order on a
  // heterogeneous pipeline.
  std::vector<StageModel> s;
  s.emplace_back("a", Gaussian{180.0, 8.0}, 0.0, 0.0);
  s.emplace_back("b", Gaussian{150.0, 5.0}, 0.0, 0.0);
  s.emplace_back("c", Gaussian{175.0, 7.0}, 0.0, 0.0);
  s.emplace_back("d", Gaussian{160.0, 9.0}, 0.0, 0.0);
  PipelineModel p(std::move(s), {});

  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(120);
  const auto truth = mc.run(200000, rng).tp_estimate();

  const auto inc =
      p.delay_distribution(sp::stats::ClarkOrdering::kIncreasingMean);
  const auto doc = p.delay_distribution(sp::stats::ClarkOrdering::kAsGiven);
  const double err_inc = std::abs(inc.sigma - truth.sigma);
  const double err_doc = std::abs(doc.sigma - truth.sigma);
  EXPECT_LE(err_inc, err_doc + 0.05);
}
