// Unit tests for deterministic STA, canonical-form SSTA and stage
// characterization, cross-validated against gate-level Monte-Carlo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bad_specs.h"
#include "device/delay_model.h"
#include "netlist/generators.h"
#include "process/variation.h"
#include "sta/characterize.h"
#include "sta/size_lanes.h"
#include "sta/ssta.h"
#include "sta/ssta_batch.h"
#include "sta/sta.h"
#include "stats/descriptive.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::device::GateKind;
using sp::process::Technology;
using sp::process::VariationSpec;

namespace {

AlphaPowerModel model() { return AlphaPowerModel{Technology{}}; }

}  // namespace

// --------------------------------------------------------------------- STA

TEST(Sta, InverterChainDelayIsSumOfStages) {
  const auto nl = sp::netlist::inverter_chain(5);
  const auto m = model();
  const auto r = sp::sta::analyze(nl, m);
  // Interior inverters drive one inverter (load 1); the last drives the
  // output load 2.  d = tau*(p + load/size), p=1, tau from tech.
  const double tau = m.technology().tau_ps;
  const double expect = 4 * tau * (1.0 + 1.0) + tau * (1.0 + 2.0);
  EXPECT_NEAR(r.critical_delay, expect, 1e-9);
}

TEST(Sta, ArrivalMonotoneAlongChain) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto r = sp::sta::analyze(nl, model());
  double prev = -1.0;
  for (auto id : nl.topological_order()) {
    EXPECT_GE(r.arrival[id], prev - 1e-12);
    prev = r.arrival[id];
  }
}

TEST(Sta, CriticalPathEndsAtCriticalOutput) {
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto r = sp::sta::analyze(nl, m);
  const auto path = r.critical_path(nl, m);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path.back(), r.critical_output);
  // Path arrival is non-decreasing.
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_GE(r.arrival[path[i]], r.arrival[path[i - 1]]);
}

TEST(Sta, UpsizedCircuitIsFaster) {
  auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const double d1 = sp::sta::analyze(nl, m).critical_delay;
  // Uniform upsizing speeds up the output stage (fixed external load).
  nl.scale_sizes(2.0);
  const double d2 = sp::sta::analyze(nl, m).critical_delay;
  EXPECT_LT(d2, d1);
}

TEST(Sta, SampleWithZeroShiftEqualsNominal) {
  const auto nl = sp::netlist::inverter_chain(6);
  const auto m = model();
  sp::process::DieSample die;  // all-zero shifts
  const auto r0 = sp::sta::analyze(nl, m);
  const auto r1 = sp::sta::analyze_sample(nl, m, die);
  EXPECT_NEAR(r0.critical_delay, r1.critical_delay, 1e-12);
}

TEST(Sta, SlowDieIsSlower) {
  const auto nl = sp::netlist::inverter_chain(6);
  const auto m = model();
  sp::process::DieSample die;
  die.dvth_inter = 0.040;
  EXPECT_GT(sp::sta::analyze_sample(nl, m, die).critical_delay,
            sp::sta::analyze(nl, m).critical_delay);
}

TEST(Sta, ThrowsWithoutOutputs) {
  sp::netlist::Netlist empty("empty");
  empty.add_input("a");
  EXPECT_THROW(sp::sta::analyze(empty, model()), std::logic_error);
}

// -------------------------------------------------------------------- SSTA

TEST(BlockSta, BitwiseMatchesScalarPerDie) {
  // critical_delay_sample_block's contract: die j of a width-W block gets
  // exactly the critical delay analyze_sample computes for that die.  Use
  // a reconvergent multi-fanin DAG and every variation component at once.
  const auto m = model();
  for (const char* which : {"c17", "grid"}) {
    const auto nl = std::string(which) == "c17"
                        ? sp::netlist::iscas_c17()
                        : sp::netlist::inverter_grid(4, 6);
    auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
    spec.sigma_l_inter_rel = 0.01;
    const sp::process::VariationSampler sampler(
        m.technology(), spec, sp::process::linear_sites(nl.size()));
    std::vector<std::size_t> site_map(nl.size());
    for (std::size_t i = 0; i < site_map.size(); ++i) site_map[i] = i;
    const sp::sta::StaOptions opt;
    const sp::sta::BoundStage stage =
        sp::sta::bind_stage(nl, m, site_map, opt);

    for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                    std::size_t{16}}) {
      const sp::stats::Rng root(4321);
      std::vector<sp::stats::Rng> lane_rngs(width);
      for (std::size_t j = 0; j < width; ++j) lane_rngs[j] = root.fork(j);
      sp::process::DieBlock block;
      sp::process::BlockWorkspace bws;
      sampler.sample_block_into(lane_rngs.data(), width, block, bws);

      sp::sta::StaBlockWorkspace ws;
      std::vector<double> critical(width);
      sp::sta::critical_delay_sample_block(stage, block, ws, critical.data());

      for (std::size_t j = 0; j < width; ++j) {
        sp::stats::Rng rng = root.fork(j);
        const double scalar =
            sp::sta::analyze_sample(nl, m, sampler.sample(rng), site_map, opt)
                .critical_delay;
        EXPECT_EQ(critical[j], scalar)
            << which << " w=" << width << " die " << j;
      }
    }
  }
}

TEST(BlockSta, OneWorkspaceServesEveryStage) {
  // The workspace is lane scratch only: streamed across bindings of two
  // different stages (and widths), it must match the scalar path on both.
  const auto m = model();
  const auto nl1 = sp::netlist::inverter_chain(6);
  const auto nl2 = sp::netlist::inverter_grid(3, 4);
  const auto spec = VariationSpec::intra_only();
  const sp::sta::StaOptions opt;
  sp::sta::StaBlockWorkspace ws;

  std::size_t width = 4;
  for (const auto* nl : {&nl1, &nl2, &nl1}) {
    const sp::process::VariationSampler sampler(
        m.technology(), spec, sp::process::linear_sites(nl->size()));
    std::vector<std::size_t> site_map(nl->size());
    for (std::size_t i = 0; i < site_map.size(); ++i) site_map[i] = i;
    const sp::stats::Rng root(7);
    std::vector<sp::stats::Rng> lane_rngs(width);
    for (std::size_t j = 0; j < width; ++j) lane_rngs[j] = root.fork(j);
    sp::process::DieBlock block;
    sp::process::BlockWorkspace bws;
    sampler.sample_block_into(lane_rngs.data(), width, block, bws);
    std::vector<double> critical(width);
    sp::sta::critical_delay_sample_block(
        sp::sta::bind_stage(*nl, m, site_map, opt), block, ws,
        critical.data());
    for (std::size_t j = 0; j < width; ++j) {
      sp::stats::Rng rng = root.fork(j);
      EXPECT_EQ(critical[j], sp::sta::analyze_sample(*nl, m,
                                                     sampler.sample(rng),
                                                     site_map, opt)
                                 .critical_delay)
          << nl->name() << " die " << j;
    }
    width -= 1;
  }
}

TEST(BlockSta, RejectsBadInputs) {
  const auto m = model();
  const auto nl = sp::netlist::inverter_chain(4);
  const auto spec = VariationSpec::intra_only();
  const sp::process::VariationSampler sampler(
      m.technology(), spec, sp::process::linear_sites(nl.size()));
  sp::stats::Rng rng(1);
  std::vector<sp::stats::Rng> lanes{rng.fork(0), rng.fork(1)};
  sp::process::DieBlock block;
  sp::process::BlockWorkspace bws;
  sampler.sample_block_into(lanes.data(), 2, block, bws);
  sp::sta::StaBlockWorkspace ws;
  double critical[2];
  const std::vector<std::size_t> short_map(nl.size() - 1, 0);
  EXPECT_THROW((void)sp::sta::bind_stage(nl, m, short_map, {}),
               std::invalid_argument);
  std::vector<std::size_t> site_map(nl.size());
  for (std::size_t i = 0; i < site_map.size(); ++i) site_map[i] = i;
  sp::netlist::Netlist no_outputs("no_outputs");
  no_outputs.add_input("a");
  EXPECT_THROW((void)sp::sta::bind_stage(no_outputs, m, {0}, {}),
               std::logic_error);
  const sp::sta::BoundStage stage = sp::sta::bind_stage(nl, m, site_map, {});
  block.width = 0;
  EXPECT_THROW(
      sp::sta::critical_delay_sample_block(stage, block, ws, critical),
      std::invalid_argument);
}

TEST(Ssta, CanonicalArithmetic) {
  const sp::sta::CanonicalDelay a{10.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.sigma(), 5.0);
  const sp::sta::CanonicalDelay b{5.0, 1.0, 0.0};
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s.mu, 15.0);
  EXPECT_DOUBLE_EQ(s.b_inter, 4.0);
  EXPECT_DOUBLE_EQ(s.sigma_ind, 4.0);
}

TEST(Ssta, CorrelationFromSharedComponent) {
  const sp::sta::CanonicalDelay a{0.0, 3.0, 4.0};  // sigma 5
  const sp::sta::CanonicalDelay b{0.0, 4.0, 3.0};  // sigma 5
  EXPECT_NEAR(a.correlation(b), 12.0 / 25.0, 1e-12);
}

TEST(Ssta, MaxPreservesTotalVariance) {
  const sp::sta::CanonicalDelay a{10.0, 2.0, 1.0};
  const sp::sta::CanonicalDelay b{11.0, 1.5, 2.0};
  const auto m = sp::sta::canonical_max(a, b);
  // Total sigma of the canonical result equals the Clark sigma.
  const auto cm = sp::stats::clark_max(a.as_gaussian(), b.as_gaussian(),
                                       a.correlation(b));
  EXPECT_NEAR(m.mu, cm.max.mean, 1e-12);
  EXPECT_NEAR(m.sigma(), cm.max.sigma, 1e-9);
}

TEST(Ssta, ChainMeanMatchesDeterministicSta) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  const auto d = sp::sta::analyze_ssta(nl, m, spec);
  // First-order SSTA mean of a single chain equals the nominal delay
  // (no max operations on a chain).
  EXPECT_NEAR(d.mu, sp::sta::analyze(nl, m).critical_delay, 1e-9);
}

TEST(Ssta, InterOnlyChainSigmaMatchesAnalytic) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_only(0.040);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);
  // Inter-only: every gate shifts together; sigma = sens_total * sigma_vth.
  EXPECT_EQ(d.sigma_ind, 0.0);
  EXPECT_NEAR(d.b_inter,
              d.mu * m.technology().alpha /
                  (m.technology().vdd - m.technology().vth0) * 0.040,
              1e-9);
}

TEST(Ssta, AgreesWithMonteCarloOnChain) {
  const auto nl = sp::netlist::inverter_chain(12);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);

  sp::stats::Rng rng(21);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 8000;
  const auto mc = sp::sta::characterize_mc(nl, m, spec, rng, co);

  EXPECT_NEAR(d.mu, mc.delay.mean, 0.02 * mc.delay.mean);
  EXPECT_NEAR(d.sigma(), mc.delay.sigma, 0.15 * mc.delay.sigma);
}

TEST(Ssta, AgreesWithMonteCarloOnDag) {
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.0, 0.5);
  const auto d = sp::sta::analyze_ssta(nl, m, spec);

  sp::stats::Rng rng(22);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto mc = sp::sta::characterize_mc(nl, m, spec, rng, co);

  // Reconvergent fanout makes first-order SSTA approximate; require the
  // mean within 3% and sigma within 25%.
  EXPECT_NEAR(d.mu, mc.delay.mean, 0.03 * mc.delay.mean);
  EXPECT_NEAR(d.sigma(), mc.delay.sigma, 0.25 * mc.delay.sigma);
}

// ------------------------------------------------- lane evaluator and grids

namespace {

// Lanes first .. first + k_lanes of a size grid around the netlist's
// current sizes, deterministic and distinct per lane: lane k scales gate g
// by 0.6 + 0.1*((k + g) % 8) + 0.013*k.
std::vector<std::vector<double>> sweep_grid(const sp::netlist::Netlist& nl,
                                            std::size_t k_lanes,
                                            std::size_t first = 0) {
  std::vector<std::vector<double>> grid(k_lanes,
                                        std::vector<double>(nl.size()));
  for (std::size_t i = 0; i < k_lanes; ++i) {
    const std::size_t k = first + i;
    for (std::size_t g = 0; g < nl.size(); ++g)
      grid[i][g] = nl.gate(g).size *
                   (0.6 + 0.1 * static_cast<double>((k + g) % 8) +
                    0.013 * static_cast<double>(k));
  }
  return grid;
}

sp::netlist::Netlist with_sizes(const sp::netlist::Netlist& nl,
                                const std::vector<double>& sizes) {
  auto work = nl;
  work.set_sizes(sizes);
  return work;
}

void expect_bitwise_eq(const sp::sta::StageCharacterization& a,
                       const sp::sta::StageCharacterization& b) {
  EXPECT_EQ(a.delay.mean, b.delay.mean);
  EXPECT_EQ(a.delay.sigma, b.delay.sigma);
  EXPECT_EQ(a.sigma_inter, b.sigma_inter);
  EXPECT_EQ(a.area, b.area);
}

// Every lane of the grid through characterize_grid equals the scalar
// references on a copy carrying its sizes, bitwise: analyze_ssta's delay
// and |b_inter|, and total_area().
void expect_grid_matches_scalar(const sp::netlist::Netlist& nl,
                                const std::vector<std::vector<double>>& grid,
                                const VariationSpec& spec,
                                double output_load = 2.0) {
  const auto m = model();
  const sp::sta::SstaOptions so{.output_load = output_load};
  const auto chars = sp::sta::characterize_grid(nl, m, grid, spec, so);
  ASSERT_EQ(chars.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    SCOPED_TRACE("lane " + std::to_string(k));
    const auto work = with_sizes(nl, grid[k]);
    const auto d = sp::sta::analyze_ssta(work, m, spec, so);
    expect_bitwise_eq(chars[k], {d.as_gaussian(), std::abs(d.b_inter),
                                 work.total_area()});
  }
}

// Sets `grid` (one size vector per lane) into a lane evaluator built at
// z = 0, evaluates, and holds every lane, bitwise, to the scalar references
// on a copy carrying its sizes: loads, per-gate canonical delays, nominal
// arrivals and critical delay, and area.  Then folds, as characterize_grid
// does, so a second call checks re-evaluation of the same evaluator.
template <std::size_t kLanes>
void expect_lanes_match_scalar(sp::sta::SizeLanes<kLanes>& lanes,
                               const sp::netlist::Netlist& nl,
                               const std::vector<std::vector<double>>& grid,
                               const VariationSpec& spec, double output_load) {
  const auto m = model();
  const std::size_t L = grid.size();
  ASSERT_EQ(lanes.lanes(), L);
  for (std::size_t g = 0; g < nl.size(); ++g)
    for (std::size_t k = 0; k < L; ++k) lanes.sizes()[g * L + k] = grid[k][g];
  lanes.evaluate();
  std::vector<double> area(L);
  lanes.area(area.data());

  const sp::sta::SstaOptions so{.output_load = output_load};
  const sp::sta::StaOptions sta_opt{.output_load = output_load};
  const auto& d = lanes.delays();
  for (std::size_t k = 0; k < L; ++k) {
    SCOPED_TRACE("width " + std::to_string(L) + ", lane " + std::to_string(k));
    const auto work = with_sizes(nl, grid[k]);
    const auto sta = sp::sta::analyze(work, m, sta_opt);
    std::size_t bad = 0;
    for (sp::netlist::GateId g = 0; g < nl.size(); ++g) {
      const std::size_t i = g * L + k;
      const auto c = sp::sta::gate_canonical_delay(work, g, m, spec, so);
      if (!nl.gate(g).is_pseudo() &&
          lanes.loads()[i] != work.load_of(g, output_load))
        ++bad;
      if (d.mu[i] != c.mu || d.b_inter[i] != c.b_inter ||
          d.sigma_ind[i] != c.sigma_ind || d.b_sys[i] != c.b_sys)
        ++bad;
      if (lanes.arrivals()[i] != sta.arrival[g]) ++bad;
    }
    EXPECT_EQ(bad, 0u) << "gate values differ from the scalar references";
    double critical = 0.0;
    for (sp::netlist::GateId o : nl.outputs())
      if (lanes.arrivals()[o * L + k] >= critical)
        critical = lanes.arrivals()[o * L + k];
    EXPECT_EQ(critical, sta.critical_delay);
    EXPECT_EQ(area[k], work.total_area());
  }
  sp::sta::CanonicalLaneArrays res(1, L);
  lanes.fold_ssta(res.at(0));
}

}  // namespace

TEST(SizeLanes, EveryLaneMatchesScalarReferencesBitwise) {
  // The compile-time one-lane evaluator and run-time widths 2, 3 and 9,
  // each lane with its own sizes, each evaluator at two size sets.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::sta::SizeLanes<1> one(nl, m, spec, 2.0, 0.0);
  expect_lanes_match_scalar(one, nl, sweep_grid(nl, 1), spec, 2.0);
  expect_lanes_match_scalar(one, nl, sweep_grid(nl, 1, 5), spec, 2.0);
  for (std::size_t width : {2, 3, 9}) {
    sp::sta::SizeLanes<0> lanes(nl, m, spec, 3.25, 0.0, width);
    expect_lanes_match_scalar(lanes, nl, sweep_grid(nl, width), spec, 3.25);
    expect_lanes_match_scalar(lanes, nl, sweep_grid(nl, width, width), spec,
                              3.25);
  }
}

TEST(SizeLanes, RejectsALaneCountOtherThanKLanes) {
  const auto nl = sp::netlist::inverter_chain(4);
  const auto m = model();
  const VariationSpec spec;
  EXPECT_THROW(sp::sta::SizeLanes<1>(nl, m, spec, 2.0, 0.0, 2),
               std::logic_error);
}

TEST(CharacterizeGrid, GridBitwiseEqualsScalarRuns) {
  // A K >= 8 sweep grid through characterize_grid is bitwise-identical to
  // K independent analyze_ssta runs.  At 40 lanes the multi-lane
  // blocks outnumber the pool workers at any width, so blocks reuse pooled
  // evaluators.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  expect_grid_matches_scalar(nl, sweep_grid(nl, 9), spec);
  expect_grid_matches_scalar(nl, sweep_grid(nl, 40), spec);
}

TEST(CharacterizeGrid, SingleLaneEqualsScalar) {
  const auto nl = sp::netlist::iscas_like("c880");
  expect_grid_matches_scalar(nl, sweep_grid(nl, 1),
                             VariationSpec::inter_intra(0.015, 0.010, 0.4));
}

TEST(CharacterizeGrid, OutputLoadReachesEveryLane) {
  const auto nl = sp::netlist::iscas_like("c499");
  expect_grid_matches_scalar(nl, sweep_grid(nl, 8),
                             VariationSpec::inter_intra(0.020, 0.010, 0.5),
                             3.5);
}

TEST(CharacterizeGrid, ZeroVarianceGridIsDegenerateButExact) {
  // Every variation source off, as its own one-spec call: each lane's
  // canonical form collapses to its deterministic delay.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto grid = sweep_grid(nl, 4);
  VariationSpec frozen;
  frozen.sigma_vth_inter = 0.0;
  frozen.sigma_vth_systematic = 0.0;
  frozen.enable_rdf = false;
  expect_grid_matches_scalar(nl, grid, frozen);
  const auto chars = sp::sta::characterize_grid(nl, m, grid, frozen, {});
  for (std::size_t k = 0; k < grid.size(); ++k) {
    EXPECT_EQ(chars[k].delay.sigma, 0.0);
    EXPECT_NEAR(chars[k].delay.mean,
                sp::sta::analyze(with_sizes(nl, grid[k]), m).critical_delay,
                1e-9);
  }
}

TEST(CharacterizeGrid, SubRangesEqualTheFullCall) {
  // No lane depends on the others or on its block: characterize_grid over
  // sub-ranges gives exactly those lanes of the full call, as the dist
  // grid task's worker ranges assume.  CI runs this binary at 1 and 8 pool
  // threads, the only other thing that re-cuts the blocks.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto grid = sweep_grid(nl, 16);
  const auto full = sp::sta::characterize_grid(nl, m, grid, spec, {});
  ASSERT_EQ(full.size(), grid.size());
  for (const auto& [begin, end] :
       std::vector<std::pair<std::size_t, std::size_t>>{{0, 1}, {1, 4},
                                                        {4, 16}}) {
    const std::vector<std::vector<double>> sub(
        grid.begin() + static_cast<std::ptrdiff_t>(begin),
        grid.begin() + static_cast<std::ptrdiff_t>(end));
    const auto part = sp::sta::characterize_grid(nl, m, sub, spec, {});
    ASSERT_EQ(part.size(), end - begin);
    for (std::size_t i = 0; i < part.size(); ++i) {
      SCOPED_TRACE("lane " + std::to_string(begin + i));
      expect_bitwise_eq(part[i], full[begin + i]);
    }
  }
}

TEST(CharacterizeGrid, RejectsLanesOfTheWrongLength) {
  // An empty lane is not "the netlist's own sizes": every lane must be a
  // full size vector, and the error names the lane.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const VariationSpec spec;
  auto expect_rejects_lane = [&](const std::vector<std::vector<double>>& grid,
                                 const std::string& lane) {
    try {
      (void)sp::sta::characterize_grid(nl, m, grid, spec, {});
      ADD_FAILURE() << "accepted a grid with a bad " << lane;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(lane), std::string::npos)
          << e.what();
    }
  };
  expect_rejects_lane({{}, nl.sizes()}, "lane 0");
  auto short_lane = nl.sizes();
  short_lane.pop_back();
  expect_rejects_lane({nl.sizes(), short_lane}, "lane 1");
  auto long_lane = nl.sizes();
  long_lane.push_back(1.0);
  expect_rejects_lane({nl.sizes(), nl.sizes(), long_lane}, "lane 2");
}

TEST(CharacterizeGrid, RejectsNonFiniteOrNonPositiveValues) {
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  const VariationSpec spec;
  const sp::netlist::GateId g = nl.outputs().front();
  for (double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL, 0.0, -1.0}) {
    SCOPED_TRACE("size " + std::to_string(bad));
    auto sizes = nl.sizes();
    sizes[g] = bad;
    EXPECT_THROW(
        (void)sp::sta::characterize_grid(nl, m, {nl.sizes(), sizes}, spec, {}),
        std::invalid_argument);
  }
  for (double bad : {std::nan(""), HUGE_VAL, -1.0}) {
    SCOPED_TRACE("output_load " + std::to_string(bad));
    EXPECT_THROW((void)sp::sta::characterize_grid(
                     nl, m, {nl.sizes()}, spec,
                     sp::sta::SstaOptions{.output_load = bad}),
                 std::invalid_argument);
  }
  // The check runs before a hook sees the grid.
  bool called = false;
  const sp::sta::GridCharacterizer hook =
      [&](const auto&, const auto&, const auto& grid, const auto&,
          const auto&) {
        called = true;
        return std::vector<sp::sta::StageCharacterization>(grid.size());
      };
  auto sizes = nl.sizes();
  sizes[g] = std::nan("");
  EXPECT_THROW((void)sp::sta::characterize_grid(nl, m, {sizes}, spec, {}, hook),
               std::invalid_argument);
  EXPECT_FALSE(called);
}

TEST(CharacterizeGrid, RejectsMissingOutputs) {
  const auto m = model();
  sp::netlist::Netlist empty("empty");
  empty.add_input("a");
  EXPECT_THROW((void)sp::sta::characterize_grid(empty, m, {empty.sizes()},
                                                VariationSpec{}, {}),
               std::logic_error);
}

TEST(CharacterizeGrid, RejectsBadVariationSpecs) {
  // Unchecked, a negative sigma gives the result for its magnitude and a
  // NaN one fails deep in clark_max without naming the field.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  bad_specs::expect_rejected([&](const VariationSpec& spec) {
    (void)sp::sta::characterize_grid(nl, m, {nl.sizes(), nl.sizes()}, spec,
                                     {});
  });
}

// ------------------------------------------------------ the level-wise fold

namespace {

// A stage whose gates take 1 to 7 fanins, so each level's fanin positions
// cut it into kernel batches of shrinking width: 8 inputs, then 6 levels of
// 9 gates, gate j of a level reading 1 + j % 7 distinct signals, the first
// from the level just below (so every level is full), the rest from any
// earlier one.  The last level and two earlier gates drive outputs.
sp::netlist::Netlist wide_fanin_stage() {
  sp::netlist::Netlist nl("wide_fanin");
  std::vector<sp::netlist::GateId> signals, below;
  for (int i = 0; i < 8; ++i)
    below.push_back(nl.add_input("i" + std::to_string(i)));
  signals = below;
  for (std::size_t v = 1; v <= 6; ++v) {
    std::vector<sp::netlist::GateId> level;
    for (std::size_t j = 0; j < 9; ++j) {
      std::vector<sp::netlist::GateId> fanins = {below[j % below.size()]};
      for (std::size_t q = 1; q <= j % 7; ++q) {
        std::size_t pick = (j * 5 + q * 3 + v) % signals.size();
        while (std::find(fanins.begin(), fanins.end(), signals[pick]) !=
               fanins.end())
          pick = (pick + 1) % signals.size();
        fanins.push_back(signals[pick]);
      }
      const GateKind kind = fanins.size() == 1   ? GateKind::kNot
                            : fanins.size() == 2 ? GateKind::kNand2
                            : fanins.size() == 3 ? GateKind::kNand3
                                                 : GateKind::kNand4;
      level.push_back(nl.add_gate(
          "g" + std::to_string(v) + "_" + std::to_string(j), kind, fanins,
          1.0 + 0.25 * static_cast<double>((v + j) % 4)));
    }
    signals.insert(signals.end(), level.begin(), level.end());
    below = level;
  }
  for (sp::netlist::GateId id : below) nl.mark_output(id);
  nl.mark_output(20);
  nl.mark_output(33);
  return nl;
}

// Every lane's canonical delays at `grid`'s sizes, from the scalar
// reference, gate-major as fold_ssta_lanes takes them.
sp::sta::CanonicalLaneArrays lane_delays(
    const sp::netlist::Netlist& nl,
    const std::vector<std::vector<double>>& grid, const VariationSpec& spec) {
  const auto m = model();
  sp::sta::CanonicalLaneArrays d(nl.size(), grid.size());
  for (std::size_t k = 0; k < grid.size(); ++k) {
    const auto work = with_sizes(nl, grid[k]);
    for (sp::netlist::GateId g = 0; g < nl.size(); ++g)
      d.at(g).store(k, sp::sta::gate_canonical_delay(work, g, m, spec));
  }
  return d;
}

// The std::invalid_argument message fold_ssta throws on lane k of `d`.
std::string scalar_fold_error(const sp::netlist::Netlist& nl,
                              sp::sta::CanonicalLaneArrays& d, std::size_t k) {
  std::vector<sp::sta::CanonicalDelay> arrival(nl.size());
  for (sp::netlist::GateId g = 0; g < nl.size(); ++g)
    arrival[g] = d.at(g).load(k);
  try {
    (void)sp::sta::fold_ssta(nl, arrival);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "fold_ssta did not throw";
}

// Poisons lane `bad` of every real gate at `level` with `poison`, then
// holds fold_ssta_lanes to fold_ssta's exception on that lane.
void expect_fold_throws_like_scalar(
    const sp::netlist::Netlist& nl, std::size_t lanes, std::size_t bad,
    std::size_t level, void (*poison)(sp::sta::CanonicalDelay&)) {
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  auto d = lane_delays(nl, sweep_grid(nl, lanes), spec);
  const auto lvl = nl.levels();
  for (sp::netlist::GateId g = 0; g < nl.size(); ++g) {
    if (nl.gate(g).is_pseudo() || lvl[g] != level) continue;
    sp::sta::CanonicalDelay c = d.at(g).load(bad);
    poison(c);
    d.at(g).store(bad, c);
  }
  const std::string want = scalar_fold_error(nl, d, bad);
  ASSERT_NE(want, "fold_ssta did not throw");
  sp::sta::LevelSchedule schedule(nl, lanes);
  sp::sta::CanonicalLaneArrays out(1, lanes);
  try {
    sp::sta::fold_ssta_lanes(schedule, d, out.at(0));
    ADD_FAILURE() << "fold_ssta_lanes did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

}  // namespace

TEST(SizeLanes, WideFaninFoldMatchesAnalyzeSstaBitwise) {
  // Widths 1, 3, 8 and 17 over gates of up to 7 fanins: every gate value
  // and every lane's fold equal the scalar references, bitwise.
  const auto nl = wide_fanin_stage();
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto check_fold = [&](auto& lanes,
                              const std::vector<std::vector<double>>& grid) {
    expect_lanes_match_scalar(lanes, nl, grid, spec, 2.0);
    lanes.evaluate();
    sp::sta::CanonicalLaneArrays res(1, grid.size());
    lanes.fold_ssta(res.at(0));
    for (std::size_t k = 0; k < grid.size(); ++k) {
      SCOPED_TRACE("width " + std::to_string(grid.size()) + ", lane " +
                   std::to_string(k));
      const auto d = sp::sta::analyze_ssta(with_sizes(nl, grid[k]), m, spec);
      const auto got = res.at(0).load(k);
      EXPECT_EQ(got.mu, d.mu);
      EXPECT_EQ(got.b_inter, d.b_inter);
      EXPECT_EQ(got.sigma_ind, d.sigma_ind);
      EXPECT_EQ(got.b_sys, d.b_sys);
    }
  };
  sp::sta::SizeLanes<1> one(nl, m, spec, 2.0, 0.0);
  check_fold(one, sweep_grid(nl, 1));
  check_fold(one, sweep_grid(nl, 1, 3));
  for (std::size_t width : {3, 8, 17}) {
    sp::sta::SizeLanes<0> lanes(nl, m, spec, 2.0, 0.0, width);
    check_fold(lanes, sweep_grid(nl, width));
    check_fold(lanes, sweep_grid(nl, width, width));
  }
}

TEST(CharacterizeGrid, WideFaninGridBitwiseEqualsScalarRuns) {
  const auto nl = wide_fanin_stage();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  for (std::size_t width : {1, 3, 8, 17})
    expect_grid_matches_scalar(nl, sweep_grid(nl, width), spec);
}

TEST(LaneFold, NanSigmaThrowsClarkMaxsError) {
  // A NaN sigma reaching a canonical max: the kernel flags the batch and
  // the scalar replay throws clark_max's exception, in any lane and at
  // any width.
  const auto nl = wide_fanin_stage();
  for (std::size_t lanes : {1, 3, 17})
    for (std::size_t bad : {std::size_t{0}, lanes - 1})
      for (std::size_t level : {1, 3}) {
        SCOPED_TRACE("lanes " + std::to_string(lanes) + ", bad lane " +
                     std::to_string(bad) + ", level " + std::to_string(level));
        expect_fold_throws_like_scalar(
            nl, lanes, bad, level,
            [](sp::sta::CanonicalDelay& c) { c.sigma_ind = std::nan(""); });
      }
}

TEST(LaneFold, NanCorrelationThrowsClarkMaxsError) {
  // Infinite shared parts make the correlation inf/inf: clark_max's
  // "|rho| > 1 or NaN" rejection, through the same replay.
  const auto nl = wide_fanin_stage();
  for (std::size_t lanes : {1, 8})
    for (std::size_t bad : {std::size_t{0}, lanes - 1}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + ", bad lane " +
                   std::to_string(bad));
      expect_fold_throws_like_scalar(
          nl, lanes, bad, 2, [](sp::sta::CanonicalDelay& c) {
            c.b_inter = std::numeric_limits<double>::infinity();
          });
    }
}

TEST(LaneFold, NanSigmaOnTheOutputChainThrowsClarkMaxsError) {
  // Poisoned output gates with one fanin each reach no gate's fanin max,
  // only the output chain.
  sp::netlist::Netlist nl("outputs");
  const auto a = nl.add_input("a");
  for (int i = 0; i < 5; ++i)
    nl.mark_output(nl.add_gate("n" + std::to_string(i), GateKind::kNot, {a}));
  for (std::size_t lanes : {1, 3})
    expect_fold_throws_like_scalar(
        nl, lanes, lanes - 1, 1,
        [](sp::sta::CanonicalDelay& c) { c.sigma_ind = std::nan(""); });
}

// --------------------------------------------------------- characterization

TEST(Characterize, SstaRejectsANonFiniteOutputLoad) {
  // The cell check now requires a finite load: an infinite or NaN output
  // load used to come back as mean NaN, sigma 0.
  const auto nl = sp::netlist::iscas_like("c432");
  const auto m = model();
  for (double bad : {HUGE_VAL, std::nan("")}) {
    SCOPED_TRACE("output_load " + std::to_string(bad));
    EXPECT_THROW((void)sp::sta::characterize_ssta(
                     nl, m, VariationSpec{},
                     sp::sta::SstaOptions{.output_load = bad}),
                 std::invalid_argument);
  }
}

TEST(Characterize, InterOnlySplitsAllSigmaToShared) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto m = model();
  sp::stats::Rng rng(31);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto c = sp::sta::characterize_mc(
      nl, m, VariationSpec::inter_only(0.040), rng, co);
  EXPECT_GT(c.sigma_inter, 0.0);
  // The private part sqrt(sigma^2 - sigma_inter^2) is at most 0.1 sigma.
  EXPECT_GE(c.sigma_inter / c.delay.sigma, std::sqrt(1.0 - 0.1 * 0.1));
}

TEST(Characterize, IntraOnlySplitsAllSigmaToPrivate) {
  const auto nl = sp::netlist::inverter_chain(8);
  const auto m = model();
  sp::stats::Rng rng(32);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 4000;
  const auto c =
      sp::sta::characterize_mc(nl, m, VariationSpec::intra_only(), rng, co);
  EXPECT_GT(c.delay.sigma, 0.0);
  EXPECT_EQ(c.sigma_inter / c.delay.sigma, 0.0);
}

TEST(Characterize, SstaAndMcAgree) {
  const auto nl = sp::netlist::inverter_chain(10);
  const auto m = model();
  const auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  sp::stats::Rng rng(33);
  sp::sta::CharacterizeOptions co;
  co.mc_samples = 6000;
  const auto a = sp::sta::characterize_ssta(nl, m, spec);
  const auto b = sp::sta::characterize_mc(nl, m, spec, rng, co);
  EXPECT_NEAR(a.delay.mean, b.delay.mean, 0.02 * b.delay.mean);
  EXPECT_NEAR(a.delay.sigma, b.delay.sigma, 0.2 * b.delay.sigma);
  EXPECT_DOUBLE_EQ(a.area, b.area);
}

TEST(Characterize, LogicDepthReducesVariability) {
  // The paper's Fig. 5(a): with random intra-die variation only, deeper
  // logic averages out gate-level randomness.
  const auto m = model();
  const auto spec = VariationSpec::intra_only();
  const auto shallow =
      sp::sta::characterize_ssta(sp::netlist::inverter_chain(5), m, spec);
  const auto deep =
      sp::sta::characterize_ssta(sp::netlist::inverter_chain(40), m, spec);
  EXPECT_GT(shallow.delay.sigma / shallow.delay.mean,
            deep.delay.sigma / deep.delay.mean);
}

TEST(Characterize, InterDieVariabilityFlatWithDepth) {
  // Fig. 5(a), inter-only series: variability independent of logic depth.
  const auto m = model();
  const auto spec = VariationSpec::inter_only(0.040);
  const auto shallow =
      sp::sta::characterize_ssta(sp::netlist::inverter_chain(5), m, spec);
  const auto deep =
      sp::sta::characterize_ssta(sp::netlist::inverter_chain(40), m, spec);
  EXPECT_NEAR(shallow.delay.sigma / shallow.delay.mean,
              deep.delay.sigma / deep.delay.mean, 1e-6);
}
