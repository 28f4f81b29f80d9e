// Tests for the simultaneous whole-pipeline sizer (the section-4 ablation
// reference).
#include <gtest/gtest.h>

#include <cmath>

#include "netlist/generators.h"
#include "opt/simultaneous.h"
#include "opt/sizer.h"

namespace sp = statpipe;

namespace {

struct Env {
  sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::device::LatchModel latch{{}, model};
  sp::process::VariationSpec spec =
      sp::process::VariationSpec::inter_intra(0.005, 0.020, 0.3);

  std::vector<sp::netlist::Netlist> stages;
  std::vector<sp::netlist::Netlist*> ptrs;

  explicit Env(std::size_t m) {
    for (std::size_t i = 0; i < m; ++i)
      stages.push_back(sp::netlist::iscas_like("c499", 70 + i));
    for (auto& s : stages) ptrs.push_back(&s);
  }

  double reachable_target(double slack) {
    double worst = 0.0;
    for (auto& s : stages) {
      auto copy = s;
      sp::opt::SizerOptions so;
      so.t_target = 1e-3;
      (void)sp::opt::size_stage(copy, model, spec, so);
      worst = std::max(worst, sp::opt::stat_delay(copy, model, spec, 0.95));
    }
    return worst * slack + latch.timing().nominal_overhead();
  }
};

}  // namespace

TEST(Simultaneous, MeetsReachableYieldTarget) {
  Env e(3);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.15);
  so.yield_target = 0.80;
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_TRUE(r.feasible);
  EXPECT_GE(r.pipeline_yield, 0.80 - 1e-9);
  EXPECT_GT(r.iterations, 0u);
}

TEST(Simultaneous, InfeasibleTargetReportedHonestly) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.latch.timing().nominal_overhead() + 1.0;  // impossible
  so.yield_target = 0.80;
  const auto r = sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so);
  EXPECT_FALSE(r.feasible);
  EXPECT_LT(r.pipeline_yield, 0.80);
}

TEST(Simultaneous, TighterTargetCostsMoreArea) {
  Env tight(2), loose(2);
  const double t_fast = tight.reachable_target(1.06);
  const double t_slow = tight.reachable_target(1.40);

  sp::opt::SimultaneousOptions so;
  so.yield_target = 0.80;
  so.t_target = t_fast;
  const auto rf = sp::opt::size_pipeline_simultaneous(
      tight.ptrs, tight.model, tight.spec, tight.latch, so);
  so.t_target = t_slow;
  const auto rs = sp::opt::size_pipeline_simultaneous(
      loose.ptrs, loose.model, loose.spec, loose.latch, so);
  ASSERT_TRUE(rf.feasible);
  ASSERT_TRUE(rs.feasible);
  EXPECT_GT(rf.area, rs.area);
}

TEST(Simultaneous, SizesWithinBounds) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.t_target = e.reachable_target(1.10);
  so.sizer.min_size = 0.5;
  so.sizer.max_size = 10.0;
  (void)sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec, e.latch,
                                            so);
  for (const auto& s : e.stages)
    for (const auto& g : s.gates()) {
      if (g.is_pseudo()) continue;
      EXPECT_GE(g.size, so.sizer.min_size - 1e-9);
      EXPECT_LE(g.size, so.sizer.max_size + 1e-9);
    }
}

TEST(Simultaneous, RejectsBadInputs) {
  Env e(2);
  sp::opt::SimultaneousOptions so;
  so.yield_target = 1.2;
  EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                   e.latch, so),
               std::invalid_argument);
  so.yield_target = 0.8;
  // The shared sizer-option check: theta <= 0 or NaN, bad damping.
  for (const double theta : {0.0, -1.0, std::nan("")}) {
    so.sizer.softmax_theta_ps = theta;
    EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so),
                 std::invalid_argument)
        << "theta " << theta;
  }
  so.sizer.softmax_theta_ps = 1.5;
  so.sizer.damping = 1.5;
  EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                   e.latch, so),
               std::invalid_argument);
  so.sizer.damping = 0.5;
  // The output load enters every stage's loads.
  for (const double load : {-1.0, std::nan("")}) {
    so.sizer.output_load = load;
    EXPECT_THROW(sp::opt::size_pipeline_simultaneous(e.ptrs, e.model, e.spec,
                                                     e.latch, so),
                 std::invalid_argument)
        << "output_load " << load;
  }
  so.sizer.output_load = 2.0;
  std::vector<sp::netlist::Netlist*> empty;
  EXPECT_THROW(sp::opt::size_pipeline_simultaneous(empty, e.model, e.spec,
                                                   e.latch, so),
               std::invalid_argument);
}
