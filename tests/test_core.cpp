// Unit tests for the paper's core analytical machinery: PipelineModel
// (eqs. 1-9), DesignSpace (eqs. 10-13), variability analysis (sec. 3.1),
// area-delay curves and the balance heuristic (sec. 3.2 / eq. 14).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/area_delay.h"
#include "core/balance.h"
#include "core/design_space.h"
#include "core/pipeline_model.h"
#include "core/variability.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace sp = statpipe;
using sp::core::DesignSpace;
using sp::core::LatchOverhead;
using sp::core::PipelineModel;
using sp::core::StageModel;
using sp::stats::Gaussian;

namespace {

PipelineModel five_stage() {
  // The Fig. 1 example: IF/ID/EX/MEM/WB with unequal nominal delays.
  std::vector<StageModel> s;
  s.emplace_back("IF", Gaussian{50.0, 4.0}, 2.0, 100.0);
  s.emplace_back("ID", Gaussian{40.0, 3.5}, 2.0, 80.0);
  s.emplace_back("EX", Gaussian{60.0, 5.0}, 2.5, 150.0);
  s.emplace_back("MEM", Gaussian{55.0, 4.5}, 2.0, 120.0);
  s.emplace_back("WB", Gaussian{30.0, 3.0}, 1.5, 60.0);
  return PipelineModel(std::move(s), LatchOverhead{36.0, 1.0, 0.7});
}

}  // namespace

// ----------------------------------------------------------- PipelineModel

TEST(PipelineModel, StageDelayComposesLatch) {
  const auto p = five_stage();
  const auto sd = p.stage_delay(0);
  EXPECT_DOUBLE_EQ(sd.mean, 86.0);  // 50 + 36
  // inter adds linearly (2+1), privates in quadrature.
  const double s_priv = std::sqrt(4.0 * 4.0 - 2.0 * 2.0);
  const double expected =
      std::sqrt(3.0 * 3.0 + s_priv * s_priv + 0.7 * 0.7);
  EXPECT_NEAR(sd.sigma, expected, 1e-12);
}

TEST(PipelineModel, MeanAboveJensenBound) {
  const auto p = five_stage();
  const auto tp = p.delay_distribution();
  EXPECT_GE(tp.mean, p.mean_lower_bound());  // eq. (3)
  EXPECT_DOUBLE_EQ(p.mean_lower_bound(), 96.0);  // EX: 60+36
}

TEST(PipelineModel, YieldMonotoneInTarget) {
  const auto p = five_stage();
  double prev = 0.0;
  for (double t : {90.0, 95.0, 100.0, 105.0, 110.0, 120.0}) {
    const double y = p.yield(t);
    EXPECT_GE(y, prev);
    prev = y;
  }
  EXPECT_LT(p.yield(80.0), 0.01);
  EXPECT_GT(p.yield(130.0), 0.99);
}

TEST(PipelineModel, TargetForYieldInverts) {
  const auto p = five_stage();
  for (double y : {0.5, 0.8, 0.9283, 0.99}) {
    const double t = p.target_delay_for_yield(y);
    EXPECT_NEAR(p.yield(t), y, 1e-9);
  }
  EXPECT_THROW(p.target_delay_for_yield(1.0), std::invalid_argument);
}

TEST(PipelineModel, IndependentYieldProductFormula) {
  // eq. (8): for independent stages the product of stage CDFs.
  std::vector<StageModel> s;
  s.emplace_back("a", Gaussian{50.0, 4.0}, 0.0, 0.0);
  s.emplace_back("b", Gaussian{52.0, 3.0}, 0.0, 0.0);
  PipelineModel p(std::move(s), {});
  const double t = 55.0;
  const double expect = sp::stats::normal_cdf((t - 50.0) / 4.0) *
                        sp::stats::normal_cdf((t - 52.0) / 3.0);
  EXPECT_NEAR(p.yield_independent(t), expect, 1e-12);
  // The Gaussian approximation (eq. 9) should be close for 2 stages.
  EXPECT_NEAR(p.yield(t), expect, 0.02);
}

TEST(PipelineModel, CorrelationMatrixFromComponents) {
  const auto p = five_stage();
  const auto c = p.correlation();
  // All stages share latch+stage inter components: strictly positive rho.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(c(i, i), 1.0);
    for (std::size_t j = i + 1; j < 5; ++j) {
      EXPECT_EQ(c(i, j), c(j, i));
      EXPECT_GT(c(i, j), 0.0);
      EXPECT_LT(c(i, j), 1.0);
    }
  }
}

// The one-factor loadings restate the model's moments: shared^2 +
// independent^2 is the stage variance and shared_i shared_j / (sigma_i
// sigma_j) the correlation, with and without the uniform override.
TEST(PipelineModel, StageFactorsReproduceSigmaAndCorrelation) {
  auto check = [](const PipelineModel& p, const std::string& mode) {
    const auto c = p.correlation();
    for (std::size_t i = 0; i < p.stage_count(); ++i) {
      const auto fi = p.stage_factors(i);
      const auto sdi = p.stage_delay(i);
      EXPECT_EQ(fi.mean, sdi.mean) << mode << " stage " << i;
      EXPECT_NEAR(std::hypot(fi.shared, fi.independent), sdi.sigma, 1e-12)
          << mode << " stage " << i;
      for (std::size_t j = i + 1; j < p.stage_count(); ++j) {
        const double sj = p.stage_delay(j).sigma;
        EXPECT_NEAR(fi.shared * p.stage_factors(j).shared / (sdi.sigma * sj),
                    c(i, j), 1e-12)
            << mode << " stages " << i << "," << j;
      }
    }
  };
  auto p = five_stage();
  check(p, "variance-derived");
  // Latch + stage inter-die sigma is shared; the rest is private.
  EXPECT_EQ(p.stage_factors(0).shared, 1.0 + 2.0);
  EXPECT_NEAR(p.stage_factors(0).independent,
              std::sqrt(4.0 * 4.0 - 2.0 * 2.0 + 0.7 * 0.7), 1e-12);
  for (const double rho : {0.0, 0.35, 1.0}) {
    p.set_uniform_correlation(rho);
    check(p, "rho " + std::to_string(rho));
  }
}

TEST(PipelineModel, UniformOverrideTakesPrecedence) {
  auto p = five_stage();
  p.set_uniform_correlation(0.5);
  const auto c = p.correlation();
  EXPECT_DOUBLE_EQ(c(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(c(3, 4), 0.5);
  p.clear_correlation_override();
  EXPECT_NE(p.correlation()(0, 1), 0.5);
}

TEST(PipelineModel, PerfectCorrelationShrinksMaxMean) {
  auto p = five_stage();
  const double mu_indep = [&] {
    auto q = five_stage();
    q.set_uniform_correlation(0.0);
    return q.delay_distribution().mean;
  }();
  p.set_uniform_correlation(0.99);
  EXPECT_LT(p.delay_distribution().mean, mu_indep);
}

TEST(PipelineModel, TotalAreaSumsStages) {
  EXPECT_DOUBLE_EQ(five_stage().total_area(), 510.0);
}

TEST(PipelineModel, RejectsBadInputs) {
  EXPECT_THROW(PipelineModel({}, {}), std::invalid_argument);
  EXPECT_THROW(StageModel("x", Gaussian{10.0, 1.0}, 2.0, 0.0),
               std::invalid_argument);  // sigma_inter > sigma
  auto p = five_stage();
  EXPECT_THROW(p.set_uniform_correlation(1.5), std::invalid_argument);
}

namespace {

// Expects `make` to throw std::invalid_argument naming `field` ("field =").
template <typename F>
void expect_rejected(F&& make, const std::string& field) {
  try {
    make();
    ADD_FAILURE() << field << ": accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field + " = "), std::string::npos)
        << field << ": " << e.what();
  }
}

const double kNaN = std::nan("");
const double kInf = HUGE_VAL;

}  // namespace

TEST(PipelineModel, UniformCorrelationRejectsNaN) {
  auto p = five_stage();
  EXPECT_THROW(p.set_uniform_correlation(kNaN), std::invalid_argument);
  EXPECT_THROW(p.set_uniform_correlation(-0.1), std::invalid_argument);
}

TEST(PipelineModel, StageRejectsNonFiniteSigma) {
  for (const double bad : {kNaN, kInf, -1.0})
    expect_rejected([&] { StageModel("x", Gaussian{100.0, bad}, 0.0, 0.0); },
                    "sigma");
}

TEST(PipelineModel, StageRejectsNonFiniteSigmaInter) {
  for (const double bad : {kNaN, kInf, -1.0, 5.5})
    expect_rejected([&] { StageModel("x", Gaussian{100.0, 5.0}, bad, 0.0); },
                    "sigma_inter");
}

TEST(PipelineModel, StageRejectsNonFiniteMeanAndArea) {
  for (const double bad : {kNaN, kInf, -kInf}) {
    expect_rejected([&] { StageModel("x", Gaussian{bad, 5.0}, 0.0, 0.0); },
                    "mean");
    expect_rejected([&] { StageModel("x", Gaussian{100.0, 5.0}, 0.0, bad); },
                    "area");
  }
}

TEST(PipelineModel, RejectsStagesBuiltFieldByField) {
  StageModel s;  // the default constructor leaves the check to the model
  s.name = "x";
  s.comb = Gaussian{100.0, kNaN};
  expect_rejected([&] { PipelineModel({s}, {}); }, "sigma");
}

TEST(PipelineModel, LatchRejectsNonFiniteFields) {
  const std::pair<const char*, double LatchOverhead::*> fields[] = {
      {"mean", &LatchOverhead::mean},
      {"sigma_inter", &LatchOverhead::sigma_inter},
      {"sigma_random", &LatchOverhead::sigma_random}};
  for (const auto& [field, member] : fields)
    for (const double bad : {kNaN, kInf, -1.0}) {
      LatchOverhead latch{36.0, 1.0, 0.7};
      latch.*member = bad;
      expect_rejected(
          [&] {
            std::vector<StageModel> s;
            s.emplace_back("a", Gaussian{100.0, 5.0}, 0.0, 0.0);
            PipelineModel(std::move(s), latch);
          },
          field);
    }
}

// -------------------------------------------------------------- DesignSpace

TEST(DesignSpace, PerStageYieldMatchesPaperExample) {
  // Section 3.2: (0.80)^(1/3) = 0.9283.
  const DesignSpace ds(179.0, 0.80);
  EXPECT_NEAR(ds.per_stage_yield(3), 0.9283, 1e-4);
}

TEST(DesignSpace, RelaxedBoundLooserThanEquality) {
  const DesignSpace ds(100.0, 0.90);
  for (double mu : {60.0, 70.0, 80.0}) {
    // eq. (12) with N stages demands more per-stage yield than eq. (11).
    EXPECT_GE(ds.relaxed_sigma_bound(mu), ds.equality_sigma_bound(mu, 4));
    // More stages -> tighter bound.
    EXPECT_GE(ds.equality_sigma_bound(mu, 2), ds.equality_sigma_bound(mu, 8));
  }
}

TEST(DesignSpace, BoundsShrinkToZeroAtTarget) {
  const DesignSpace ds(100.0, 0.90);
  EXPECT_NEAR(ds.relaxed_sigma_bound(100.0), 0.0, 1e-12);
  EXPECT_EQ(ds.relaxed_sigma_bound(120.0), 0.0);
}

TEST(DesignSpace, AdmissibilityConsistentWithBounds) {
  const DesignSpace ds(100.0, 0.90);
  const double mu = 80.0;
  const double s_eq = ds.equality_sigma_bound(mu, 4);
  EXPECT_TRUE(ds.admissible_equality(mu, s_eq * 0.99, 4));
  EXPECT_FALSE(ds.admissible_equality(mu, s_eq * 1.01, 4));
  EXPECT_TRUE(ds.admissible_relaxed(mu, s_eq * 1.01));  // relaxed is looser
}

TEST(DesignSpace, RealizableSigmaSqrtLaw) {
  // eq. (13): doubling mu multiplies sigma by sqrt(2).
  const Gaussian unit{4.0, 0.5};
  const double s1 = DesignSpace::realizable_sigma(40.0, unit);
  const double s2 = DesignSpace::realizable_sigma(80.0, unit);
  EXPECT_NEAR(s2 / s1, std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(s1, 0.5 * std::sqrt(10.0), 1e-12);
}

TEST(DesignSpace, SweepProducesOrderedCurves) {
  const DesignSpace ds(100.0, 0.90);
  const auto pts = ds.sweep(20.0, 95.0, 16, 4, 8, {4.0, 0.8}, {4.0, 0.3});
  ASSERT_EQ(pts.size(), 16u);
  for (const auto& p : pts) {
    EXPECT_GE(p.relaxed_sigma, p.equality_sigma_n1 - 1e-9);
    EXPECT_GE(p.equality_sigma_n1, p.equality_sigma_n2 - 1e-9);  // n1 < n2
    EXPECT_GE(p.realizable_hi_sigma, p.realizable_lo_sigma);
  }
}

TEST(DesignSpace, MeanUpperBound) {
  const DesignSpace ds(100.0, 0.90);
  // eq. (10) with sigma_T = 5: mu <= 100 - 5*z(0.9).
  EXPECT_NEAR(ds.mean_upper_bound(5.0),
              100.0 - 5.0 * sp::stats::normal_icdf(0.90), 1e-12);
  EXPECT_THROW(ds.mean_upper_bound(-1.0), std::invalid_argument);
}

TEST(DesignSpace, RejectsBadConstruction) {
  EXPECT_THROW(DesignSpace(0.0, 0.9), std::invalid_argument);
  EXPECT_THROW(DesignSpace(100.0, 1.0), std::invalid_argument);
}

// -------------------------------------------------------------- variability

TEST(Variability, ChainCompositionLaws) {
  sp::core::GateDelayComponents g{4.0, 0.2, 0.1, 0.4};
  const auto s = sp::core::stage_from_chain(g, 16);
  EXPECT_DOUBLE_EQ(s.mu, 64.0);
  EXPECT_DOUBLE_EQ(s.sigma_inter, 3.2);     // 16 * 0.2 (fully correlated)
  EXPECT_DOUBLE_EQ(s.sigma_rand, 1.6);      // sqrt(16) * 0.4
  EXPECT_DOUBLE_EQ(s.sigma_sys, 1.6);       // 16 * 0.1 (corr-within = 1)
}

TEST(Variability, UncorrelatedSystematicAddsInQuadrature) {
  sp::core::GateDelayComponents g{4.0, 0.0, 0.1, 0.0};
  const auto s = sp::core::stage_from_chain(g, 16, 0.0);
  EXPECT_NEAR(s.sigma_sys, 0.4, 1e-12);  // sqrt(16)*0.1
}

TEST(Variability, RandomVariabilityFallsWithDepth) {
  // Fig. 5(a), intra-only series.
  sp::core::GateDelayComponents g{4.0, 0.0, 0.0, 0.4};
  const auto v = sp::core::stage_variability_sweep(g, {5, 10, 20, 40});
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_LT(v[i], v[i - 1]);
  // Exactly 1/sqrt(NL) scaling.
  EXPECT_NEAR(v[0] / v[3], std::sqrt(40.0 / 5.0), 1e-9);
}

TEST(Variability, InterVariabilityFlatWithDepth) {
  // Fig. 5(a), inter-only series.
  sp::core::GateDelayComponents g{4.0, 0.4, 0.0, 0.0};
  const auto v = sp::core::stage_variability_sweep(g, {5, 10, 20, 40});
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_NEAR(v[i], v[0], 1e-9);
}

TEST(Variability, MaxFunctionReducesPipelineVariability) {
  // Fig. 5(b): more stages -> lower sigma/mu; weaker effect at high rho.
  const Gaussian stage{50.0, 5.0};
  const double v4_r0 = sp::core::pipeline_variability(stage, 4, 0.0);
  const double v40_r0 = sp::core::pipeline_variability(stage, 40, 0.0);
  EXPECT_LT(v40_r0, v4_r0);

  const double v4_r5 = sp::core::pipeline_variability(stage, 4, 0.5);
  const double v40_r5 = sp::core::pipeline_variability(stage, 40, 0.5);
  EXPECT_LT(v40_r5, v4_r5);
  // Sensitivity to stage count shrinks with correlation.
  EXPECT_LT(v4_r5 - v40_r5, v4_r0 - v40_r0);
}

TEST(Variability, Fig5cCrossover) {
  // Intra-only: variability RISES with stage count (depth effect wins).
  sp::core::GateDelayComponents intra{4.0, 0.0, 0.0, 0.4};
  const auto up = sp::core::fixed_total_depth_sweep(intra, 120,
                                                    {4, 8, 12, 24, 30});
  EXPECT_GT(up.back().pipeline_variability, up.front().pipeline_variability);

  // Strong inter-die: variability FALLS with stage count (max effect wins).
  sp::core::GateDelayComponents inter{4.0, 0.5, 0.0, 0.1};
  const auto down = sp::core::fixed_total_depth_sweep(inter, 120,
                                                      {4, 8, 12, 24, 30});
  EXPECT_LT(down.back().pipeline_variability,
            down.front().pipeline_variability);
}

TEST(Variability, SweepRejectsNonDivisor) {
  sp::core::GateDelayComponents g{4.0, 0.1, 0.0, 0.2};
  EXPECT_THROW(sp::core::fixed_total_depth_sweep(g, 120, {7}),
               std::invalid_argument);
}

// ----------------------------------------------------------- area-delay

namespace {

sp::core::AreaDelayCurve convex_curve() {
  // area ~ k/delay: a standard convex sizing trade-off.
  std::vector<sp::core::AreaDelayCurve::Point> pts;
  for (double d = 50.0; d <= 100.0; d += 5.0) pts.push_back({d, 5000.0 / d});
  return sp::core::AreaDelayCurve(std::move(pts));
}

}  // namespace

TEST(AreaDelay, InterpolationAndInverse) {
  const auto c = convex_curve();
  EXPECT_NEAR(c.area_at(50.0), 100.0, 1e-12);
  EXPECT_NEAR(c.area_at(100.0), 50.0, 1e-12);
  const double a = c.area_at(72.5);
  EXPECT_NEAR(c.delay_at_area(a), 72.5, 0.2);
}

TEST(AreaDelay, ClampsOutsideRange) {
  const auto c = convex_curve();
  EXPECT_DOUBLE_EQ(c.area_at(10.0), c.area_at(50.0));
  EXPECT_DOUBLE_EQ(c.delay_at_area(1e6), c.min_delay());
  EXPECT_DOUBLE_EQ(c.delay_at_area(0.0), c.max_delay());
}

TEST(AreaDelay, ElasticityOfPowerLawIsOne) {
  // area = k/delay has d(ln A)/d(ln D) = -1 exactly.
  const auto c = convex_curve();
  EXPECT_NEAR(c.elasticity_at(75.0), 1.0, 0.02);
}

TEST(AreaDelay, ClassifyRoles) {
  using sp::core::RebalanceRole;
  EXPECT_EQ(sp::core::classify_stage(2.0), RebalanceRole::kDonor);
  EXPECT_EQ(sp::core::classify_stage(0.4), RebalanceRole::kReceiver);
  EXPECT_EQ(sp::core::classify_stage(1.01), RebalanceRole::kNeutral);
}

TEST(AreaDelay, RejectsNonMonotone) {
  std::vector<sp::core::AreaDelayCurve::Point> pts{{50.0, 10.0},
                                                   {60.0, 20.0}};
  EXPECT_THROW(sp::core::AreaDelayCurve(std::move(pts)),
               std::invalid_argument);
}

// ----------------------------------------------------------------- balance

namespace {

sp::core::BalanceAnalyzer three_stage_analyzer() {
  // Mimics the Fig. 6/8 setup: three stages with dissimilar area-delay
  // curves.  At the 60ps balanced point the middle (linear-curve) stage
  // converts area to delay at |dA/dD| = 4 — elasticity R ~ 1.5 > 1, a
  // donor per eq. (14) — while the quadratic stages sit at |dA/dD| ~ 0.83
  // (R ~ 0.77 < 1, receivers): shifting area from donor to receivers buys
  // ~5x more speedup than the donor loses, the paper's
  // imbalance-improves-yield mechanism.
  auto sigma_model = [](double frac) {
    return [frac](double mu) { return frac * mu; };
  };
  std::vector<sp::core::StageFamily> fams;
  std::vector<sp::core::AreaDelayCurve::Point> quad, lin;
  for (double d = 40.0; d <= 80.0; d += 4.0) {
    quad.push_back({d, 40.0 + 90000.0 / (d * d)});
    lin.push_back({d, 400.0 - 4.0 * d});
  }
  fams.push_back({"alu1", sp::core::AreaDelayCurve(quad), sigma_model(0.05),
                  0.3});
  fams.push_back({"decoder", sp::core::AreaDelayCurve(lin),
                  sigma_model(0.05), 0.3});
  fams.push_back({"alu2", sp::core::AreaDelayCurve(quad), sigma_model(0.05),
                  0.3});
  return sp::core::BalanceAnalyzer(std::move(fams),
                                   sp::core::LatchOverhead{10.0, 0.5, 0.3},
                                   75.0);
}

}  // namespace

TEST(Balance, EvaluateComputesAreasFromCurves) {
  auto an = three_stage_analyzer();
  const auto r = an.balanced(60.0);
  EXPECT_EQ(r.stage_areas.size(), 3u);
  EXPECT_NEAR(r.total_area,
              r.stage_areas[0] + r.stage_areas[1] + r.stage_areas[2], 1e-9);
  EXPECT_GT(r.yield, 0.0);
  EXPECT_LT(r.yield, 1.0);
}

TEST(Balance, RebalanceNeverWorsensYield) {
  auto an = three_stage_analyzer();
  const auto bal = an.balanced(60.0);
  const auto reb = an.rebalance_for_yield(bal.stage_delays, 0.002, 400);
  EXPECT_GE(reb.yield, bal.yield - 1e-12);
  // Equal-area constraint maintained.
  EXPECT_NEAR(reb.total_area, bal.total_area, 1e-6 * bal.total_area);
}

TEST(Balance, ImbalanceImprovesYieldInAsymmetricPipeline) {
  // The paper's core section-3.2 claim, on a setup built to show it.
  auto an = three_stage_analyzer();
  const auto bal = an.balanced(60.0);
  const auto reb = an.rebalance_for_yield(bal.stage_delays, 0.002, 400);
  EXPECT_GT(reb.yield, bal.yield + 0.005);
  // And the found design is actually unbalanced.
  double spread = 0.0;
  for (double d : reb.stage_delays)
    spread = std::max(spread, std::abs(d - reb.stage_delays[0]));
  EXPECT_GT(spread, 0.5);
}

TEST(Balance, WorstUnbalancingHurtsYield) {
  auto an = three_stage_analyzer();
  const auto bal = an.balanced(60.0);
  const auto worst = an.unbalance_worst(bal.stage_delays, 0.002, 400);
  EXPECT_LT(worst.yield, bal.yield + 1e-12);
  EXPECT_NEAR(worst.total_area, bal.total_area, 1e-6 * bal.total_area);
}

TEST(Balance, ElasticitiesDistinguishStages) {
  auto an = three_stage_analyzer();
  const auto e = an.elasticities({60.0, 60.0, 60.0});
  ASSERT_EQ(e.size(), 3u);
  // Donor (linear curve) above 1, receivers (quadratic) below 1 — the
  // eq.-(14) classification.
  EXPECT_GT(e[1], 1.0);
  EXPECT_LT(e[0], 1.0);
  EXPECT_NEAR(e[0], e[2], 1e-9);
}

TEST(Balance, RejectsOutOfRangeDelay) {
  auto an = three_stage_analyzer();
  EXPECT_THROW(an.evaluate({10.0, 60.0, 60.0}), std::invalid_argument);
  EXPECT_THROW(an.evaluate({60.0, 60.0}), std::invalid_argument);
}
