// Tests for the statistical sizer ([3]-style LR loop), the area-delay
// sweep, and the Fig.-9 global pipeline optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/characterized_pipeline.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "opt/global_optimizer.h"
#include "opt/sizer.h"
#include "opt/sweep.h"
#include "sim/thread_pool.h"
#include "sta/ssta.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::process::Technology;
using sp::process::VariationSpec;

namespace {

AlphaPowerModel model() { return AlphaPowerModel{Technology{}}; }

double stat_delay_of(const sp::netlist::Netlist& nl,
                     const AlphaPowerModel& m, const VariationSpec& spec,
                     double y) {
  return sp::opt::stat_delay(nl, m, spec, y);
}

}  // namespace

// ------------------------------------------------------------------- sizer

TEST(Sizer, MeetsRelaxedTargetOnChain) {
  auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const double d0 = stat_delay_of(nl, m, spec, 0.95);

  sp::opt::SizerOptions so;
  so.t_target = d0 * 1.2;  // relaxed: sizer should recover area
  so.yield_target = 0.95;
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.stat_delay, so.t_target + so.tolerance_ps);
}

TEST(Sizer, TighterTargetCostsMoreArea) {
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);

  auto nl_fast = sp::netlist::iscas_like("c432");
  auto nl_slow = sp::netlist::iscas_like("c432");
  const double d0 = stat_delay_of(nl_fast, m, spec, 0.95);

  sp::opt::SizerOptions fast, slow;
  fast.t_target = d0 * 0.75;
  slow.t_target = d0 * 1.05;
  const auto rf = sp::opt::size_stage(nl_fast, m, spec, fast);
  const auto rs = sp::opt::size_stage(nl_slow, m, spec, slow);
  ASSERT_TRUE(rf.feasible);
  ASSERT_TRUE(rs.feasible);
  EXPECT_GT(rf.area, rs.area);
}

TEST(Sizer, InfeasibleTargetReportedHonestly) {
  auto nl = sp::netlist::inverter_chain(20);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  sp::opt::SizerOptions so;
  so.t_target = 1.0;  // 20 FO1 delays can never fit in 1 ps
  const auto r = sp::opt::size_stage(nl, m, spec, so);
  EXPECT_FALSE(r.feasible);
  EXPECT_GT(r.stat_delay, so.t_target);
}

TEST(Sizer, SizesStayWithinBounds) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::opt::SizerOptions so;
  so.t_target = stat_delay_of(nl, m, spec, 0.95) * 0.8;
  so.min_size = 0.5;
  so.max_size = 8.0;
  (void)sp::opt::size_stage(nl, m, spec, so);
  for (const auto& g : nl.gates()) {
    if (g.is_pseudo()) continue;
    EXPECT_GE(g.size, so.min_size - 1e-9);
    EXPECT_LE(g.size, so.max_size + 1e-9);
  }
}

TEST(Sizer, HigherYieldTargetNeedsMoreArea) {
  // The statistical effect of [3]: tightening yield from 80% to 99%
  // requires upsizing (z*sigma margin grows).
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  auto nl80 = sp::netlist::iscas_like("c432");
  auto nl99 = sp::netlist::iscas_like("c432");
  const double t = stat_delay_of(nl80, m, spec, 0.95) * 0.9;

  sp::opt::SizerOptions so80, so99;
  so80.t_target = so99.t_target = t;
  so80.yield_target = 0.80;
  so99.yield_target = 0.99;
  const auto r80 = sp::opt::size_stage(nl80, m, spec, so80);
  const auto r99 = sp::opt::size_stage(nl99, m, spec, so99);
  ASSERT_TRUE(r80.feasible);
  ASSERT_TRUE(r99.feasible);
  EXPECT_GT(r99.area, r80.area * 0.98);  // allow noise; typically strictly >
}

namespace {

// size_stage's LR loop written plainly: load_of at every use,
// sta::analyze_ssta once per iteration and fresh arrival and weight
// vectors each iteration.  size_stage evaluates every gate once per
// iteration and must reproduce this loop bit for bit.
sp::opt::SizerResult reference_size_stage(sp::netlist::Netlist& nl,
                                          const AlphaPowerModel& m,
                                          const VariationSpec& spec,
                                          const sp::opt::SizerOptions& opt) {
  using sp::netlist::GateId;
  const double z = sp::stats::normal_icdf(opt.yield_target);
  const double tau = m.technology().tau_ps;
  const double theta = opt.softmax_theta_ps;
  const double sqrt_depth =
      std::sqrt(static_cast<double>(std::max<std::size_t>(nl.depth(), 1)));
  sp::sta::SstaOptions so;
  so.output_load = opt.output_load;
  const auto& topo = nl.topological_order();

  double lambda = 1.0;
  double best_stat = std::numeric_limits<double>::infinity();
  std::vector<double> best = nl.sizes();
  sp::opt::SizerResult r;
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    std::vector<double> arrival(nl.size(), 0.0);
    for (GateId id : topo) {
      const auto& g = nl.gate(id);
      if (g.is_pseudo()) continue;
      double in_arr = 0.0;
      for (GateId f : g.fanins) in_arr = std::max(in_arr, arrival[f]);
      const double load = nl.load_of(id, opt.output_load);
      const auto sig = m.delay_sigmas(g.kind, g.size, load, spec);
      arrival[id] = in_arr + m.nominal_delay(g.kind, g.size, load) +
                    z * sig.total() / sqrt_depth;
    }
    const auto d = sp::sta::analyze_ssta(nl, m, spec, so);
    const double ds = d.mu + z * d.sigma();
    ++r.iterations;

    const double window = opt.t_target + opt.tolerance_ps;
    const bool feas = ds <= window, best_feas = best_stat <= window;
    const double area = nl.total_area();
    const bool take = feas && best_feas ? area < r.area
                      : feas != best_feas ? feas
                                          : ds < best_stat;
    if (take || r.iterations == 1) {
      best_stat = ds;
      r.area = area;
      best = nl.sizes();
    }
    if (std::abs(ds - opt.t_target) <= opt.tolerance_ps) break;

    const double violation = (ds - opt.t_target) / std::max(opt.t_target, 1.0);
    lambda *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
    lambda = std::clamp(lambda, 1e-4, 1e6);

    std::vector<double> w(nl.size(), 0.0);
    double amax = 0.0;
    for (GateId o : nl.outputs()) amax = std::max(amax, arrival[o]);
    double norm = 0.0;
    for (GateId o : nl.outputs()) norm += std::exp((arrival[o] - amax) / theta);
    for (GateId o : nl.outputs())
      w[o] += std::exp((arrival[o] - amax) / theta) / norm;
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
      const auto& g = nl.gate(*it);
      if (w[*it] <= 0.0 || g.fanins.empty()) continue;
      double fmax = 0.0;
      for (GateId f : g.fanins) fmax = std::max(fmax, arrival[f]);
      double fsum = 0.0;
      for (GateId f : g.fanins) fsum += std::exp((arrival[f] - fmax) / theta);
      for (GateId f : g.fanins)
        w[f] += w[*it] * std::exp((arrival[f] - fmax) / theta) / fsum;
    }

    for (GateId id : topo) {
      auto& g = nl.gate(id);
      if (g.is_pseudo()) continue;
      const auto& t = sp::device::traits(g.kind);
      const double load = nl.load_of(id, opt.output_load);
      double pred_cost = 0.0;
      for (GateId f : g.fanins) {
        const auto& pg = nl.gate(f);
        if (pg.is_pseudo()) continue;
        pred_cost += lambda * w[f] * tau * t.logical_effort / pg.size;
      }
      const double x_star = std::sqrt(std::max(
          lambda * w[id] * tau * std::max(load, 1e-6) / (t.area + pred_cost),
          1e-12));
      const double x_new = std::clamp(x_star, opt.min_size, opt.max_size);
      g.size = g.size * (1.0 - opt.damping) + x_new * opt.damping;
    }
  }

  nl.set_sizes(best);
  const auto d = sp::sta::analyze_ssta(nl, m, spec, so);
  r.delay = d.as_gaussian();
  r.stat_delay = d.mu + z * d.sigma();
  r.area = nl.total_area();
  r.feasible = r.stat_delay <= opt.t_target + opt.tolerance_ps;
  return r;
}

// Every field of two sizer results, bitwise.
void expect_same_result(const sp::opt::SizerResult& r,
                        const sp::opt::SizerResult& e) {
  EXPECT_EQ(r.feasible, e.feasible);
  EXPECT_EQ(r.iterations, e.iterations);
  EXPECT_EQ(r.area, e.area);
  EXPECT_EQ(r.stat_delay, e.stat_delay);
  EXPECT_EQ(r.delay.mean, e.delay.mean);
  EXPECT_EQ(r.delay.sigma, e.delay.sigma);
}

}  // namespace

TEST(Sizer, MatchesPlainReferenceLoopBitwise) {
  // c2670 drives 140 primary outputs, so its loads lean on the output
  // flags; the tiny target runs all iterations without converging.
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  for (const char* name : {"c432", "c2670", "c3540"}) {
    for (const double y : {0.80, 0.95}) {
      for (const double scale : {0.9, 0.2}) {
        SCOPED_TRACE(std::string(name) + " y=" + std::to_string(y) +
                     " scale=" + std::to_string(scale));
        auto nl = sp::netlist::iscas_like(name);
        auto ref_nl = nl;
        sp::opt::SizerOptions so;
        so.yield_target = y;
        so.t_target = stat_delay_of(nl, m, spec, y) * scale;
        const auto r = sp::opt::size_stage(nl, m, spec, so);
        const auto ref = reference_size_stage(ref_nl, m, spec, so);
        EXPECT_EQ(r.feasible, scale > 0.5);
        EXPECT_EQ(r.feasible, ref.feasible);
        EXPECT_EQ(r.iterations, ref.iterations);
        EXPECT_EQ(r.area, ref.area);
        EXPECT_EQ(r.stat_delay, ref.stat_delay);
        EXPECT_EQ(r.delay.mean, ref.delay.mean);
        EXPECT_EQ(r.delay.sigma, ref.delay.sigma);
        for (std::size_t i = 0; i < nl.size(); ++i)
          ASSERT_EQ(nl.gate(i).size, ref_nl.gate(i).size) << "gate " << i;
      }
    }
  }
}

TEST(Sizer, GridLanesMatchReferenceLoopBitwise) {
  // Per circuit and yield, four targets: one that never converges (1e-3),
  // the current stat delay (converges at iteration 1), a reachable and an
  // infeasible one.  c2670 drives 140 primary outputs.  A grid splits into
  // one contiguous block per pool worker, so grids of 4, 1 and 3 targets
  // per worker, cycling through the four, run blocks of 4, 1 and 3 lanes
  // at any pool width.
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const std::size_t workers = sp::sim::ThreadPool::shared().thread_count();
  for (const char* name : {"c432", "c2670", "c3540"}) {
    for (const double y : {0.80, 0.95}) {
      SCOPED_TRACE(std::string(name) + " y=" + std::to_string(y));
      const auto nl = sp::netlist::iscas_like(name);
      const std::vector<double> before = nl.sizes();
      const double d0 = stat_delay_of(nl, m, spec, y);
      const double kinds[] = {1e-3, d0, d0 * 0.9, d0 * 0.2};
      sp::opt::SizerOptions so;
      so.yield_target = y;

      std::vector<sp::opt::SizerResult> ref;
      std::vector<std::vector<double>> ref_sizes;
      for (const double t : kinds) {
        auto ref_nl = nl;
        so.t_target = t;
        ref.push_back(reference_size_stage(ref_nl, m, spec, so));
        ref_sizes.push_back(ref_nl.sizes());
      }
      EXPECT_EQ(ref[0].iterations, so.max_iterations);
      EXPECT_EQ(ref[1].iterations, 1u);
      EXPECT_TRUE(ref[2].feasible);
      EXPECT_FALSE(ref[3].feasible);

      for (const std::size_t per_worker : {4, 1, 3}) {
        SCOPED_TRACE("lanes per block " + std::to_string(per_worker));
        std::vector<double> targets(per_worker * workers);
        for (std::size_t k = 0; k < targets.size(); ++k)
          targets[k] = kinds[k % 4];
        sp::obs::set_enabled(true);
        sp::obs::reset();
        const auto grid = sp::opt::size_stage_grid(nl, m, spec, so, targets);
        const std::uint64_t counted =
            sp::obs::snapshot().counter("opt.sizer.iterations");
        sp::obs::set_enabled(false);
        ASSERT_EQ(grid.size(), targets.size());
        EXPECT_EQ(nl.sizes(), before);

        std::uint64_t iterations = 0;
        for (std::size_t k = 0; k < targets.size(); ++k) {
          SCOPED_TRACE("lane " + std::to_string(k));
          expect_same_result(grid[k].result, ref[k % 4]);
          EXPECT_EQ(grid[k].sizes, ref_sizes[k % 4]);
          iterations += grid[k].result.iterations;
        }
        EXPECT_EQ(counted, iterations);
      }

      // No iteration at all: every lane reports its starting point.
      so.max_iterations = 0;
      so.t_target = kinds[2];
      auto start_nl = nl;
      const auto start = reference_size_stage(start_nl, m, spec, so);
      EXPECT_EQ(start.iterations, 0u);
      for (const auto& lane :
           sp::opt::size_stage_grid(nl, m, spec, so, {kinds[2], kinds[2]})) {
        expect_same_result(lane.result, start);
        EXPECT_EQ(lane.sizes, before);
      }
    }
  }
}

TEST(Sizer, RejectsBadOptions) {
  auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  sp::opt::SizerOptions so;
  so.yield_target = 1.5;
  EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument);
  so.yield_target = 0.9;
  so.min_size = -1.0;
  EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument);
  so.min_size = 0.5;
  so.damping = 0.0;
  EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument);
  so.damping = 0.5;
  // A non-positive or NaN softmax temperature makes every criticality
  // weight NaN or meaningless.
  for (const double theta : {0.0, -1.0, std::nan("")}) {
    so.softmax_theta_ps = theta;
    EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument)
        << "theta " << theta;
  }
  so.softmax_theta_ps = 1.5;
  // A NaN target would run every iteration on NaN and return the unsized
  // netlist; a NaN output load makes every delay NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double t : {std::nan(""), inf, -inf}) {
    so.t_target = t;
    EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument)
        << "t_target " << t;
  }
  so.t_target = 100.0;
  for (const double tol : {-0.01, std::nan("")}) {
    so.tolerance_ps = tol;
    EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument)
        << "tolerance " << tol;
  }
  so.tolerance_ps = 0.05;
  for (const double load : {-1.0, std::nan("")}) {
    so.output_load = load;
    EXPECT_THROW(sp::opt::size_stage(nl, m, spec, so), std::invalid_argument)
        << "output_load " << load;
  }
  so.output_load = 2.0;

  // The grid checks every target before any lane runs.
  const std::vector<double> sizes = nl.sizes();
  sp::obs::set_enabled(true);
  sp::obs::reset();
  EXPECT_THROW(
      sp::opt::size_stage_grid(nl, m, spec, so, {100.0, 50.0, std::nan("")}),
      std::invalid_argument);
  EXPECT_EQ(sp::obs::snapshot().counter("opt.sizer.iterations"), 0u);
  sp::obs::set_enabled(false);
  EXPECT_EQ(nl.sizes(), sizes);
  so.tolerance_ps = -1.0;
  EXPECT_THROW(sp::opt::size_stage_grid(nl, m, spec, so, {100.0}),
               std::invalid_argument);
}

// ------------------------------------------------------------------- sweep

TEST(Sweep, ProducesMonotoneCurve) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::opt::SweepOptions so;
  so.points = 8;
  const auto r = sp::opt::area_delay_sweep(nl, m, spec, so);
  const auto& pts = r.curve.points();
  ASSERT_GE(pts.size(), 2u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].delay, pts[i - 1].delay);
    EXPECT_LT(pts[i].area, pts[i - 1].area);
  }
  // Netlist left at the fastest point.
  EXPECT_NEAR(stat_delay_of(nl, m, spec, so.yield_target),
              pts.front().delay, 0.5);
}

TEST(Sweep, RejectsDegenerateOptions) {
  auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  sp::opt::SweepOptions so;
  so.points = 1;
  EXPECT_THROW(
      sp::opt::area_delay_sweep(nl, m, VariationSpec::intra_only(), so),
      std::invalid_argument);
  so.points = 4;
  for (const double slow : {1.0, 0.5, std::nan("")}) {
    so.slow_factor = slow;
    EXPECT_THROW(
        sp::opt::area_delay_sweep(nl, m, VariationSpec::intra_only(), so),
        std::invalid_argument)
        << "slow_factor " << slow;
  }
}

// -------------------------------------------------------- global optimizer

namespace {

struct PipelineFixture {
  std::vector<sp::netlist::Netlist> stages;
  AlphaPowerModel m{Technology{}};
  VariationSpec spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::device::LatchModel latch{{}, m};

  PipelineFixture() {
    // A small 3-stage pipeline: two c432-like stages and a chain stage.
    stages.push_back(sp::netlist::iscas_like("c432", 1));
    stages.push_back(sp::netlist::inverter_grid(4, 12));
    stages.push_back(sp::netlist::iscas_like("c432", 2));
  }
  std::vector<sp::netlist::Netlist*> ptrs() {
    std::vector<sp::netlist::Netlist*> v;
    for (auto& s : stages) v.push_back(&s);
    return v;
  }
};

}  // namespace

TEST(GlobalOpt, IndividualOptimizationMeetsPerStageYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  // Pick a reachable target: 15% above the slowest stage's fastest point.
  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;  // copy: probe without disturbing
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  const double t_target = t * 1.15 + f.latch.timing().nominal_overhead();

  const auto pipe = go.optimize_individually(t_target, 0.80);
  // Every stage should meet its per-stage yield (0.8^(1/3) = 0.928) w.r.t.
  // the target, within modeling slack.
  for (std::size_t i = 0; i < pipe.stage_count(); ++i)
    EXPECT_GT(pipe.stage_delay(i).cdf(t_target), 0.85) << "stage " << i;
}

TEST(GlobalOpt, EnsureYieldLiftsPipelineYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  const double t_target = t * 1.12 + f.latch.timing().nominal_overhead();

  (void)go.optimize_individually(t_target, 0.80);

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kEnsureYield;
  opt.sweep.points = 6;
  const auto r = go.optimize(opt);

  EXPECT_GE(r.pipeline_yield_after, r.pipeline_yield_before - 1e-9);
  EXPECT_GE(r.pipeline_yield_after, 0.80 - 0.02);
  ASSERT_EQ(r.stages.size(), 3u);
}

TEST(GlobalOpt, MinimizeAreaKeepsYield) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);

  double t = 0.0;
  for (auto& s : f.stages) {
    auto nl = s;
    sp::opt::SizerOptions so;
    so.t_target = 1e-3;
    (void)sp::opt::size_stage(nl, f.m, f.spec, so);
    t = std::max(t, sp::opt::stat_delay(nl, f.m, f.spec, 0.95));
  }
  // Generous target so there is clear slack to convert into area savings.
  const double t_target = t * 1.35 + f.latch.timing().nominal_overhead();

  // Baseline: individually optimized with extra-conservative per-stage
  // yields (the paper's Table III baseline has stages at 94-95%).
  sp::opt::SizerOptions so;
  (void)go.optimize_individually(t_target, 0.95);
  const auto before = go.current_model();
  const double area_before = before.total_area();
  ASSERT_GE(before.yield(t_target), 0.80);

  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = t_target;
  opt.yield_target = 0.80;
  opt.mode = sp::opt::OptimizationMode::kMinimizeArea;
  opt.sweep.points = 6;
  const auto r = go.optimize(opt);

  EXPECT_GE(r.pipeline_yield_after, 0.80 - 0.02);
  EXPECT_LE(r.total_area_after, area_before + 1e-6);
}

TEST(GlobalOpt, RejectsBadConstruction) {
  PipelineFixture f;
  EXPECT_THROW(
      sp::opt::GlobalPipelineOptimizer({}, f.m, f.spec, f.latch),
      std::invalid_argument);
  std::vector<sp::netlist::Netlist*> with_null = f.ptrs();
  with_null.push_back(nullptr);
  EXPECT_THROW(
      sp::opt::GlobalPipelineOptimizer(with_null, f.m, f.spec, f.latch),
      std::invalid_argument);
}

TEST(GlobalOpt, LatchOverheadExceedingTargetThrows) {
  PipelineFixture f;
  sp::opt::GlobalPipelineOptimizer go(f.ptrs(), f.m, f.spec, f.latch);
  EXPECT_THROW(go.optimize_individually(10.0, 0.80), std::invalid_argument);
  sp::opt::GlobalOptimizerOptions opt;
  opt.t_target = 10.0;  // less than Tc-q + Tsetup
  EXPECT_THROW(go.optimize(opt), std::invalid_argument);
}
