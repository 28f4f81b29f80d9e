// Unit tests for the process-variation model and the alpha-power device
// delay model (the SPICE stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "device/delay_model.h"
#include "device/gate_library.h"
#include "device/latch.h"
#include "process/variation.h"
#include "stats/descriptive.h"
#include "stats/matrix.h"
#include "stats/rng.h"

namespace sp = statpipe;
using sp::device::AlphaPowerModel;
using sp::device::GateKind;
using sp::process::Technology;
using sp::process::VariationSpec;

// ----------------------------------------------------------------- process

TEST(Technology, RdfSigmaScalesInverseSqrtWidth) {
  Technology t;
  const double s1 = t.sigma_vth_rdf(1.0);
  const double s4 = t.sigma_vth_rdf(4.0);
  EXPECT_NEAR(s1 / s4, 2.0, 1e-12);
  EXPECT_NEAR(s1, 0.030, 1e-4);  // calibrated to ~30mV at min size
  EXPECT_THROW(t.sigma_vth_rdf(0.0), std::invalid_argument);
}

TEST(VariationSpec, Presets) {
  const auto intra = VariationSpec::intra_only();
  EXPECT_EQ(intra.sigma_vth_inter, 0.0);
  EXPECT_TRUE(intra.enable_rdf);

  const auto inter = VariationSpec::inter_only(0.040);
  EXPECT_DOUBLE_EQ(inter.sigma_vth_inter, 0.040);
  EXPECT_FALSE(inter.enable_rdf);

  const auto both = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  EXPECT_DOUBLE_EQ(both.sigma_vth_inter, 0.020);
  EXPECT_DOUBLE_EQ(both.sigma_vth_systematic, 0.010);
  EXPECT_TRUE(both.enable_rdf);
}

TEST(VariationSampler, InterDieShiftSharedAcrossSites) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::inter_only(0.040),
                                  sp::process::linear_sites(8));
  sp::stats::Rng rng(1);
  const auto die = s.sample(rng);
  // Inter-only: every site sees exactly the same shift.
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(die.dvth_at(i, 1.0), die.dvth_inter);
}

TEST(VariationSampler, InterDieSigmaMatchesSpec) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::inter_only(0.040),
                                  sp::process::linear_sites(2));
  sp::stats::Rng rng(2);
  sp::stats::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(s.sample(rng).dvth_inter);
  EXPECT_NEAR(rs.mean(), 0.0, 1e-3);
  EXPECT_NEAR(rs.stddev(), 0.040, 1e-3);
}

TEST(VariationSampler, RdfIndependentAcrossSites) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::intra_only(),
                                  sp::process::linear_sites(2));
  sp::stats::Rng rng(3);
  std::vector<double> a, b;
  for (int i = 0; i < 20000; ++i) {
    const auto die = s.sample(rng);
    a.push_back(die.dvth_random[0]);
    b.push_back(die.dvth_random[1]);
  }
  EXPECT_NEAR(sp::stats::pearson(a, b), 0.0, 0.02);
  EXPECT_NEAR(sp::stats::stddev(a), tech.sigma_vth_rdf(1.0), 0.001);
}

// Shuffled positions with coincident sites: a stage boundary puts a gate,
// its latch and the next stage's first gate at one position.
const std::vector<double> kFieldSites = {0.7, 0.0,  0.35, 0.7, 1.0,
                                         0.1, 0.35, 0.7,  0.55};

TEST(VariationSampler, SystematicFieldSpatiallyCorrelated) {
  // Unit sigma and no other component: dvth_systematic is the unit field.
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.0, 1.0, 0.5);
  spec.enable_rdf = false;
  const std::vector<double>& x = kFieldSites;
  const std::size_t n = x.size();
  const sp::process::VariationSampler s(tech, spec, x);
  const sp::stats::Matrix want =
      sp::stats::spatial_correlation(x, spec.correlation_length);

  constexpr std::size_t kDies = 20000;
  const std::size_t W = std::min<std::size_t>(
      8, statpipe::stats::lanes::max_width());
  const sp::stats::Rng root(4);
  std::vector<std::vector<double>> scalar, block;
  for (std::size_t k = 0; k < kDies; ++k) {
    sp::stats::Rng rng = root.fork(k);
    scalar.push_back(s.sample(rng).dvth_systematic);
  }
  std::vector<sp::stats::Rng> lanes(W);
  sp::process::DieBlock b;
  sp::process::BlockWorkspace ws;
  for (std::size_t k = 0; k < kDies; k += W) {
    for (std::size_t j = 0; j < W; ++j) lanes[j] = root.fork(kDies + k + j);
    s.sample_block_into(lanes.data(), W, b, ws);
    for (std::size_t j = 0; j < W; ++j) {
      std::vector<double> f(n);
      for (std::size_t i = 0; i < n; ++i) f[i] = b.dvth_systematic[i * W + j];
      block.push_back(f);
    }
  }

  for (const auto* fields : {&scalar, &block}) {
    const double dies = static_cast<double>(fields->size());
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t c = a; c < n; ++c) {
        // Zero-mean unit field: the covariance estimate sum(f_a f_c) / N
        // has variance (1 + rho^2) / N; five standard errors.
        double sum = 0.0;
        for (const auto& f : *fields) sum += f[a] * f[c];
        const double rho = want(a, c);
        EXPECT_NEAR(sum / dies, rho, 5.0 * std::sqrt((1.0 + rho * rho) / dies))
            << (fields == &scalar ? "sample" : "sample_block_into")
            << " sites " << a << "," << c;
        // Coincident sites (r = 1, s = 0) share the field bit for bit.
        if (x[a] == x[c])
          for (const auto& f : *fields)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(f[a]),
                      std::bit_cast<std::uint64_t>(f[c]))
                << "sites " << a << "," << c;
      }
    }
  }
}

TEST(VariationSampler, FieldIsTheExponentialRecursionInPositionOrder) {
  // Pins the z -> field map (docs/DETERMINISM.md): the field's standard
  // normals are the die's only draws here, so a clone of the Rng replays
  // them, and the recursion over the stably position-sorted sites must
  // reproduce the sampled field bit for bit.
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.0, 1.0, 0.3);
  spec.enable_rdf = false;
  const std::vector<double>& x = kFieldSites;
  const sp::process::VariationSampler s(tech, spec, x);
  sp::stats::Rng rng(11);
  sp::stats::Rng replay = rng;
  const auto die = s.sample(rng);
  std::vector<double> f;
  replay.normal_fill(f, x.size());
  std::vector<std::size_t> o(x.size());
  std::iota(o.begin(), o.end(), std::size_t{0});
  std::stable_sort(o.begin(), o.end(),
                   [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  for (std::size_t k = 1; k < o.size(); ++k) {
    const double d = x[o[k]] - x[o[k - 1]];
    const double r = std::exp(-d / spec.correlation_length);
    const double sk = std::sqrt(-std::expm1(-2.0 * d / spec.correlation_length));
    f[o[k]] = r * f[o[k - 1]] + sk * f[o[k]];
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(die.dvth_systematic[i], f[i]) << "site " << i;
}

TEST(VariationSampler, DrawsHundredThousandSiteField) {
  // One draw over 100k sites: the dense factor this replaced would need
  // 80 GB.  Spacing equal to the correlation length makes the field an
  // AR(1) series with lag-1 correlation exp(-1).
  Technology tech;
  const std::size_t n = 100000;
  auto spec = VariationSpec::inter_intra(0.0, 1.0,
                                         1.0 / static_cast<double>(n - 1));
  spec.enable_rdf = false;
  const sp::process::VariationSampler s(tech, spec,
                                        sp::process::linear_sites(n));
  sp::stats::Rng rng(12);
  const auto die = s.sample(rng);
  ASSERT_EQ(die.dvth_systematic.size(), n);
  double sum = 0.0, sum2 = 0.0, lag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = die.dvth_systematic[i];
    ASSERT_TRUE(std::isfinite(f));
    sum += f;
    sum2 += f * f;
    if (i > 0) lag += f * die.dvth_systematic[i - 1];
  }
  const double dn = static_cast<double>(n);
  EXPECT_NEAR(sum / dn, 0.0, 0.03);
  EXPECT_NEAR(sum2 / dn, 1.0, 0.03);
  EXPECT_NEAR(lag / (dn - 1.0), std::exp(-1.0), 0.03);
}

TEST(VariationSampler, RejectsBadFieldInputs) {
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  const auto sites = sp::process::linear_sites(4);
  for (const double len : {std::nan(""), 0.0, -1.0}) {
    spec.correlation_length = len;
    EXPECT_THROW(sp::process::VariationSampler(tech, spec, sites),
                 std::invalid_argument)
        << "correlation_length " << len;
  }
  spec.correlation_length = 0.5;
  EXPECT_THROW(sp::process::VariationSampler(
                   tech, spec, {0.0, std::nan(""), 0.5, 1.0}),
               std::invalid_argument);
  // Without a systematic component neither input is used.
  spec.sigma_vth_systematic = 0.0;
  spec.correlation_length = std::nan("");
  EXPECT_NO_THROW(sp::process::VariationSampler(tech, spec, sites));
}

TEST(VariationSampler, RdfScalesWithDeviceWidth) {
  Technology tech;
  sp::process::VariationSampler s(tech, VariationSpec::intra_only(),
                                  sp::process::linear_sites(1));
  sp::stats::Rng rng(5);
  const auto die = s.sample(rng);
  EXPECT_NEAR(die.dvth_at(0, 4.0), die.dvth_random[0] / 2.0, 1e-15);
}

TEST(VariationBlock, BlockSamplingBitwiseMatchesScalarLanes) {
  // sample_block_into's contract: lane j of a width-W block, drawn from
  // lane_rngs[j], is bitwise-identical to one scalar sample() call on an
  // identically forked Rng.  Exercise every component at once (inter Vth+L,
  // systematic Vth+L, RDF) across widths 1/8/16.
  Technology tech;
  auto spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
  spec.sigma_l_inter_rel = 0.015;
  spec.sigma_l_systematic_rel = 0.008;
  const auto sites = sp::process::linear_sites(9);
  const sp::process::VariationSampler sampler(tech, spec, sites);

  for (const std::size_t width : {std::size_t{1}, std::size_t{8},
                                  std::size_t{16}}) {
    const sp::stats::Rng root(77);
    std::vector<sp::stats::Rng> lane_rngs(width);
    for (std::size_t j = 0; j < width; ++j) lane_rngs[j] = root.fork(j);

    sp::process::DieBlock block;
    sp::process::BlockWorkspace ws;
    sampler.sample_block_into(lane_rngs.data(), width, block, ws);
    ASSERT_EQ(block.width, width);
    ASSERT_EQ(block.sites, sites.size());

    for (std::size_t j = 0; j < width; ++j) {
      sp::stats::Rng scalar_rng = root.fork(j);
      const sp::process::DieSample die = sampler.sample(scalar_rng);
      for (std::size_t i = 0; i < sites.size(); ++i) {
        EXPECT_EQ(block.dvth_at(i, j, 1.0), die.dvth_at(i, 1.0))
            << "w=" << width << " lane " << j << " site " << i;
        EXPECT_EQ(block.dvth_at(i, j, 2.5), die.dvth_at(i, 2.5));
        EXPECT_EQ(block.dvth_shared_at(i, j), die.dvth_shared_at(i));
        EXPECT_EQ(block.dl_rel_at(i, j), die.dl_rel_at(i));
      }
    }
  }
}

TEST(VariationBlock, ComponentPresenceMirrorsSpec) {
  Technology tech;
  const auto spec = VariationSpec::inter_only(0.040);  // no RDF, no field
  const sp::process::VariationSampler sampler(tech, spec,
                                              sp::process::linear_sites(4));
  sp::stats::Rng rng(5);
  std::vector<sp::stats::Rng> lanes{rng.fork(0), rng.fork(1)};
  sp::process::DieBlock block;
  sp::process::BlockWorkspace ws;
  sampler.sample_block_into(lanes.data(), 2, block, ws);
  EXPECT_TRUE(block.dvth_systematic.empty());
  EXPECT_TRUE(block.dvth_random.empty());
  EXPECT_TRUE(block.dl_systematic_rel.empty());
  EXPECT_EQ(block.dvth_inter.size(), 2u);

  EXPECT_THROW(sampler.sample_block_into(lanes.data(), 0, block, ws),
               std::invalid_argument);
  EXPECT_THROW(
      sampler.sample_block_into(lanes.data(),
                                statpipe::stats::lanes::max_width() + 1,
                                block, ws),
      std::invalid_argument);
}

TEST(LinearSites, EvenSpacing) {
  const auto p = sp::process::linear_sites(5);
  EXPECT_DOUBLE_EQ(p.front(), 0.0);
  EXPECT_DOUBLE_EQ(p.back(), 1.0);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
  EXPECT_THROW(sp::process::linear_sites(0), std::invalid_argument);
}

TEST(ImpliedCorrelation, VarianceRatio) {
  using sp::process::VariationSampler;
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(VariationSampler::implied_correlation(1.0, 1.0), 0.5);
}

// ------------------------------------------------------------------ device

TEST(GateLibrary, TraitsSane) {
  const auto& inv = sp::device::traits(GateKind::kNot);
  EXPECT_DOUBLE_EQ(inv.logical_effort, 1.0);
  EXPECT_DOUBLE_EQ(inv.area, 1.0);
  // NAND2 has higher effort than inverter, NOR2 higher still.
  EXPECT_GT(sp::device::traits(GateKind::kNand2).logical_effort, 1.0);
  EXPECT_GT(sp::device::traits(GateKind::kNor2).logical_effort,
            sp::device::traits(GateKind::kNand2).logical_effort);
}

TEST(GateLibrary, NameRoundTrip) {
  for (auto k : {GateKind::kNot, GateKind::kNand2, GateKind::kNand3,
                 GateKind::kNor2, GateKind::kXor2, GateKind::kBuf}) {
    EXPECT_EQ(sp::device::gate_kind_from_string(
                  std::string(sp::device::to_string(k))),
              k);
  }
  EXPECT_THROW(sp::device::gate_kind_from_string("FROB"),
               std::invalid_argument);
}

TEST(GateLibrary, CapAndAreaScaleWithSize) {
  EXPECT_DOUBLE_EQ(sp::device::input_cap(GateKind::kNot, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(sp::device::cell_area(GateKind::kNot, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(sp::device::input_cap(GateKind::kInput, 5.0), 0.0);
}

TEST(AlphaPower, NominalFactorIsOne) {
  AlphaPowerModel m{Technology{}};
  EXPECT_DOUBLE_EQ(m.variation_factor(0.0, 0.0), 1.0);
}

TEST(AlphaPower, RejectsUnphysicalAlpha) {
  // The constructor's alpha cap is what makes variation_factor's fixed
  // drive-ratio window a sound guard for the pow core's exponent range.
  Technology t;
  t.alpha = 5.0;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = 0.0;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = -1.3;
  EXPECT_THROW(AlphaPowerModel{t}, std::invalid_argument);
  t.alpha = 2.0;
  EXPECT_NO_THROW(AlphaPowerModel{t});
}

TEST(AlphaPower, SlowsWithHigherVthFasterWithLower) {
  AlphaPowerModel m{Technology{}};
  EXPECT_GT(m.variation_factor(+0.040), 1.0);
  EXPECT_LT(m.variation_factor(-0.040), 1.0);
  EXPECT_GT(m.variation_factor(+0.040), 1.0 / m.variation_factor(-0.040) - 0.05);
}

TEST(AlphaPower, LengthIncreasesDelayQuadratically) {
  AlphaPowerModel m{Technology{}};
  EXPECT_NEAR(m.variation_factor(0.0, 0.10), 1.21, 1e-12);
}

TEST(AlphaPower, ThrowsOutOfSaturation) {
  AlphaPowerModel m{Technology{}};
  EXPECT_THROW(m.variation_factor(0.9), std::domain_error);
  EXPECT_THROW(m.variation_factor(0.0, -1.0), std::domain_error);
}

TEST(AlphaPower, CellLaneFormsMatchScalarAndCheckFirst) {
  // The LR sizer evaluates gates through the lane forms; lane k must be
  // the scalar call on lane k's arguments, for real and pseudo cells and
  // with the RDF term on and off.
  AlphaPowerModel m{Technology{}};
  sp::stats::Rng rng(2024);
  constexpr std::size_t kN = 8;
  double size[kN], load[kN], mu[kN], inter[kN], sys[kN], rnd[kN], cap[kN],
      area[kN];
  for (const GateKind kind :
       {GateKind::kNot, GateKind::kNand3, GateKind::kXor2, GateKind::kInput}) {
    for (const bool rdf : {true, false}) {
      VariationSpec spec = VariationSpec::inter_intra(0.020, 0.010, 0.5);
      spec.enable_rdf = rdf;
      for (std::size_t k = 0; k < kN; ++k) {
        size[k] = 0.5 + 4.0 * rng.uniform();
        load[k] = 10.0 * rng.uniform();
        cap[k] = area[k] = load[k];
      }
      m.nominal_delay_lanes(kind, size, load, kN, mu);
      m.delay_sigmas_lanes(kind, size, load, kN, spec, {inter, sys, rnd});
      sp::device::add_input_cap_lanes(kind, size, kN, cap);
      sp::device::add_cell_area_lanes(kind, size, kN, area);
      for (std::size_t k = 0; k < kN; ++k) {
        const auto s = m.delay_sigmas(kind, size[k], load[k], spec);
        EXPECT_EQ(mu[k], m.nominal_delay(kind, size[k], load[k]));
        EXPECT_EQ(inter[k], s.inter);
        EXPECT_EQ(sys[k], s.systematic);
        EXPECT_EQ(rnd[k], s.random);
        EXPECT_EQ(cap[k], load[k] + sp::device::input_cap(kind, size[k]));
        EXPECT_EQ(area[k], load[k] + sp::device::cell_area(kind, size[k]));
      }
    }
  }
  // A bad lane throws the scalar call's exception before anything is
  // written.
  const VariationSpec spec = VariationSpec::intra_only();
  double sz[4] = {1.0, 1.0, 0.0, 1.0};  // lane 2: size <= 0
  double ld[4] = {1.0, 1.0, 1.0, 1.0};
  double out[4] = {-1.0, -1.0, -1.0, -1.0};
  EXPECT_THROW(m.nominal_delay_lanes(GateKind::kNot, sz, ld, 4, out),
               std::invalid_argument);
  EXPECT_THROW(
      m.delay_sigmas_lanes(GateKind::kNot, sz, ld, 4, spec, {out, out, out}),
      std::invalid_argument);
  sz[2] = 1.0;
  ld[3] = -1.0;  // lane 3: negative load
  EXPECT_THROW(m.nominal_delay_lanes(GateKind::kNot, sz, ld, 4, out),
               std::invalid_argument);
  for (double v : out) EXPECT_EQ(v, -1.0);
}

TEST(AlphaPower, FactorAgreesWithLibmPow) {
  // variation_factor now runs on the shared polynomial pow core; it must
  // still track the libm formula to ~1e-13 relative over the sampling
  // domain.
  AlphaPowerModel m{Technology{}};
  const Technology t{};
  sp::stats::Rng rng(2718);
  for (int i = 0; i < 20000; ++i) {
    const double dvth = rng.normal(0.0, 0.040);
    const double drive0 = t.vdd - t.vth0;
    if (drive0 - dvth <= 0.0) continue;
    const double ref = std::pow(drive0 / (drive0 - dvth), t.alpha);
    EXPECT_NEAR(m.variation_factor(dvth), ref, 1e-13 * ref);
  }
}

TEST(AlphaPower, DelayDecreasesWithSizeIncreasesWithLoad) {
  AlphaPowerModel m{Technology{}};
  const double d1 = m.nominal_delay(GateKind::kNot, 1.0, 4.0);
  const double d2 = m.nominal_delay(GateKind::kNot, 2.0, 4.0);
  const double d3 = m.nominal_delay(GateKind::kNot, 1.0, 8.0);
  EXPECT_LT(d2, d1);
  EXPECT_GT(d3, d1);
  EXPECT_THROW(m.nominal_delay(GateKind::kNot, 0.0, 1.0),
               std::invalid_argument);
}

TEST(AlphaPower, SensitivityMatchesFiniteDifference) {
  AlphaPowerModel m{Technology{}};
  const double d0 = m.nominal_delay(GateKind::kNand2, 2.0, 6.0);
  const double eps = 1e-5;
  const double fd =
      (m.delay(GateKind::kNand2, 2.0, 6.0, eps) - d0) / eps;
  EXPECT_NEAR(m.dvth_sensitivity(GateKind::kNand2, 2.0, 6.0), fd,
              std::abs(fd) * 1e-3);
}

TEST(AlphaPower, SigmaDecompositionRespectsSpec) {
  AlphaPowerModel m{Technology{}};
  const auto s_intra =
      m.delay_sigmas(GateKind::kNot, 1.0, 4.0, VariationSpec::intra_only());
  EXPECT_EQ(s_intra.inter, 0.0);
  EXPECT_GT(s_intra.random, 0.0);

  const auto s_inter = m.delay_sigmas(GateKind::kNot, 1.0, 4.0,
                                      VariationSpec::inter_only(0.040));
  EXPECT_GT(s_inter.inter, 0.0);
  EXPECT_EQ(s_inter.random, 0.0);
  EXPECT_NEAR(s_inter.total(), s_inter.inter, 1e-15);
}

TEST(AlphaPower, UpsizingShrinksRandomSigma) {
  AlphaPowerModel m{Technology{}};
  const auto spec = VariationSpec::intra_only();
  // Compare relative (per-ps) random sigma: RDF falls as 1/sqrt(size).
  const auto s1 = m.delay_sigmas(GateKind::kNot, 1.0, 4.0, spec);
  const auto s4 = m.delay_sigmas(GateKind::kNot, 4.0, 4.0, spec);
  const double rel1 = s1.random / m.nominal_delay(GateKind::kNot, 1.0, 4.0);
  const double rel4 = s4.random / m.nominal_delay(GateKind::kNot, 4.0, 4.0);
  EXPECT_NEAR(rel1 / rel4, 2.0, 1e-9);
}

// ------------------------------------------------------------------- latch

TEST(Latch, OverheadScalesWithVth) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  const double nominal = latch.timing().nominal_overhead();
  EXPECT_DOUBLE_EQ(latch.overhead_at(0.0), nominal);
  EXPECT_GT(latch.overhead_at(0.040), nominal);
}

TEST(Latch, DistributionDecomposition) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  const auto d = latch.overhead_distribution(VariationSpec::inter_only(0.040));
  EXPECT_DOUBLE_EQ(d.mean, latch.timing().nominal_overhead());
  EXPECT_GT(d.sigma, 0.0);
  // With no inter-die variation only the private component remains.
  const auto d0 = latch.overhead_distribution(VariationSpec::intra_only());
  EXPECT_NEAR(d0.sigma,
              latch.timing().nominal_overhead() *
                  latch.timing().random_sigma_rel,
              1e-12);
  EXPECT_LT(d0.sigma, d.sigma);
}

TEST(Latch, SampledOverheadMatchesDistribution) {
  AlphaPowerModel m{Technology{}};
  sp::device::LatchModel latch({}, m);
  sp::stats::Rng rng(77);
  sp::stats::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(latch.sample_overhead(0.0, rng));
  EXPECT_NEAR(rs.mean(), latch.timing().nominal_overhead(), 0.05);
  EXPECT_NEAR(rs.stddev(),
              latch.timing().nominal_overhead() *
                  latch.timing().random_sigma_rel,
              0.02);
}
