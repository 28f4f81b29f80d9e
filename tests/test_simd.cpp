// Tests for the runtime-dispatched SIMD backend layer (stats/simd.h):
// detection and STATPIPE_SIMD resolution, and the per-backend bitwise
// self-consistency matrix — scalar reference vs. every backend this
// machine can run, at every width the backend accepts, through the ported
// kernels (pow_pos, clark_max_lanes, sample_block_into), a full
// GateLevelMonteCarlo block run and the block walk's domain-fault path.
//
// All backends are compiled from one kernel source with IEEE-preserving
// flags only (no -mfma, -ffp-contract=off), so cross-backend equality is
// asserted *bitwise* here: any fused or reassociated arithmetic sneaking
// into a backend build is a test failure, not a tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "device/latch.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "process/variation.h"
#include "sta/sta.h"
#include "stats/clark.h"
#include "stats/lanes.h"
#include "stats/rng.h"
#include "stats/simd.h"

namespace sp = statpipe;
namespace simd = statpipe::stats::simd;

namespace {

/// Clears any forced backend on scope exit so a failing ASSERT inside a
/// forced region cannot leak the forcing into later tests.
struct BackendGuard {
  explicit BackendGuard(simd::Backend b) { simd::force_backend_for_testing(b); }
  ~BackendGuard() { simd::clear_forced_backend_for_testing(); }
};

/// Widths the self-consistency matrix probes, clipped to a backend's max.
std::vector<std::size_t> matrix_widths(std::size_t max_width) {
  std::vector<std::size_t> w;
  for (std::size_t c : {std::size_t{1}, std::size_t{8}, std::size_t{16},
                        std::size_t{32}, std::size_t{64}})
    if (c <= max_width) w.push_back(c);
  return w;
}

}  // namespace

// -------------------------------------------------------------- detection

TEST(SimdDetect, ScalarAlwaysPresentAndPreferenceOrdered) {
  const auto det = simd::detected_backends();
  ASSERT_FALSE(det.empty());
  EXPECT_EQ(det.front(), simd::Backend::kScalar);
  for (simd::Backend b : det) {
    const simd::KernelTable* t = simd::kernels_for(b);
    ASSERT_NE(t, nullptr) << simd::backend_name(b);
    EXPECT_EQ(t->backend, b);
    EXPECT_STREQ(t->name, simd::backend_name(b));
    EXPECT_GE(t->max_width, std::size_t{8});
    EXPECT_LE(t->max_width, sp::stats::lanes::kMaxWidth);
    EXPECT_LE(t->default_width, t->max_width);
  }
  // The active table is one of the detected ones.
  const simd::KernelTable& active = simd::kernels();
  EXPECT_NE(std::find(det.begin(), det.end(), active.backend), det.end());
}

TEST(SimdDetect, ForcingSwitchesActiveTableAndWidthCaps) {
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    EXPECT_EQ(simd::kernels().backend, b);
    EXPECT_EQ(sp::stats::lanes::max_width(), simd::kernels_for(b)->max_width);
    // validated_width tracks the forced backend's cap.
    EXPECT_EQ(sp::stats::lanes::validated_width(sp::stats::lanes::max_width()),
              sp::stats::lanes::max_width());
    EXPECT_THROW(
        sp::stats::lanes::validated_width(sp::stats::lanes::max_width() + 1),
        std::invalid_argument);
  }
}

// ------------------------------------------------------------- resolution

TEST(SimdResolve, KnownNamesParse) {
  EXPECT_EQ(simd::parse_backend("scalar"), simd::Backend::kScalar);
  EXPECT_EQ(simd::parse_backend("sse42"), simd::Backend::kSse42);
  EXPECT_EQ(simd::parse_backend("avx2"), simd::Backend::kAvx2);
  EXPECT_EQ(simd::parse_backend("avx512"), simd::Backend::kAvx512);
  EXPECT_EQ(simd::parse_backend("neon"), simd::Backend::kNeon);
  EXPECT_THROW(simd::parse_backend("AVX2"), std::invalid_argument);
  EXPECT_THROW(simd::parse_backend(""), std::invalid_argument);
}

TEST(SimdResolve, UnknownEnvValueThrowsListingDetectedBackends) {
  // STATPIPE_SIMD=<garbage> must fail loudly, and the message must tell
  // the user what this machine actually supports.
  try {
    (void)simd::resolve_env("altivec");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("altivec"), std::string::npos) << msg;
    for (simd::Backend b : simd::detected_backends())
      EXPECT_NE(msg.find(simd::backend_name(b)), std::string::npos) << msg;
  }
}

TEST(SimdResolve, UnsupportedBackendThrowsListingDetectedBackends) {
  // On any one machine at least one named backend is unusable (neon and
  // avx512 are never both runnable); forcing it must throw, not fall back.
  const auto det = simd::detected_backends();
  for (simd::Backend b : {simd::Backend::kSse42, simd::Backend::kAvx2,
                          simd::Backend::kAvx512, simd::Backend::kNeon}) {
    if (std::find(det.begin(), det.end(), b) != det.end()) continue;
    try {
      (void)simd::resolve_env(simd::backend_name(b));
      FAIL() << "expected std::invalid_argument for "
             << simd::backend_name(b);
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("not usable"), std::string::npos) << msg;
      EXPECT_NE(msg.find("scalar"), std::string::npos) << msg;
    }
    return;  // one unusable backend exercised is enough
  }
  FAIL() << "no unusable backend found — detection list is implausible";
}

TEST(SimdResolve, SupportedNamesResolveToTheirTables) {
  for (simd::Backend b : simd::detected_backends())
    EXPECT_EQ(simd::resolve_env(simd::backend_name(b)).backend, b);
}

// --------------------------------------- per-backend bitwise consistency

TEST(SimdMatrix, ClarkMaxLanesMatchesScalarClarkBitwise) {
  sp::stats::Rng rng(777);
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    const std::size_t maxw = simd::kernels().max_width;
    for (std::size_t w : matrix_widths(maxw)) {
      std::vector<double> m1(w), s1(w), m2(w), s2(w), rho(w);
      std::vector<double> om(w), os(w), oa(w), oaa(w), op(w);
      for (std::size_t j = 0; j < w; ++j) {
        m1[j] = rng.uniform(-5.0, 5.0);
        m2[j] = rng.uniform(-5.0, 5.0);
        s1[j] = rng.uniform(0.0, 3.0);
        s2[j] = rng.uniform(0.0, 3.0);
        rho[j] = rng.uniform(-1.0, 1.0);
      }
      // Exercise the degenerate select path in a couple of lanes too.
      if (w >= 2) {
        s1[0] = s2[0] = 0.0;
        rho[0] = 0.0;
        s1[1] = s2[1] = 1.0;
        rho[1] = 1.0;
      }
      sp::stats::clark_max_lanes({m1.data(), s1.data()},
                                 {m2.data(), s2.data()}, rho.data(), w,
                                 {om.data(), os.data(), oa.data(),
                                  oaa.data(), op.data()});
      for (std::size_t j = 0; j < w; ++j) {
        const auto cm = sp::stats::clark_max({m1[j], s1[j]}, {m2[j], s2[j]},
                                             rho[j]);
        ASSERT_EQ(om[j], cm.max.mean)
            << simd::backend_name(b) << " w=" << w << " lane " << j;
        ASSERT_EQ(os[j], cm.max.sigma);
        ASSERT_EQ(oa[j], cm.alpha);
        ASSERT_EQ(oaa[j], cm.a);
        ASSERT_EQ(op[j], cm.phi_a);
      }
    }
  }

  // Edge lanes of the Gaussian core, cycled over every width: |alpha| from
  // +-0 up to 40 (the core clamps at 39) and past exp's underflow, huge
  // mean gaps, and a degenerate lane.  With s1 = 1, s2 = 0, rho = 0 the
  // difference sigma a is exactly 1, so alpha is mu1 - mu2.
  struct Lane {
    double m1, s1, m2, s2, rho;
  };
  std::vector<Lane> edge;
  for (double al : {0.0, -0.0, 1e-300, 1e-8, 0.5, 1.0, 5.0, 8.3, 20.0, 37.0,
                    37.5, 38.5, 39.0, 40.0, 1e3, 1e15})
    for (double sign : {1.0, -1.0}) edge.push_back({sign * al, 1.0, 0.0, 0.0, 0.0});
  edge.push_back({-0.0, 1.0, 0.0, 0.0, 0.0});  // alpha = -0 - 0 = -0
  edge.push_back({1e150, 3.0, -1e150, 4.0, 0.25});
  edge.push_back({-1e150, 3.0, 1e150, 4.0, -0.25});
  edge.push_back({1e12, 0.5, 1e12 + 1.0, 0.5, 1.0});  // degenerate: a = 0
  edge.push_back({2.0, 1e-3, 2.0, 1e-3, 1.0 + 5e-10});  // rho clamps to 1
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      std::vector<double> m1(w), s1(w), m2(w), s2(w), rho(w);
      for (std::size_t j = 0; j < w; ++j) {
        const Lane& l = edge[j % edge.size()];
        m1[j] = l.m1;
        s1[j] = l.s1;
        m2[j] = l.m2;
        s2[j] = l.s2;
        rho[j] = l.rho;
      }
      // Once out of place, once in place (out.mean == x1.mean, and the
      // other outputs over the remaining inputs index for index).
      for (bool in_place : {false, true}) {
        std::vector<double> im1 = m1, is1 = s1, im2 = m2, is2 = s2,
                            irho = rho;
        std::vector<double> om(w), os(w), oa(w), oaa(w), op(w);
        const sp::stats::ClarkLanes out =
            in_place ? sp::stats::ClarkLanes{im1.data(), is1.data(),
                                             im2.data(), is2.data(),
                                             irho.data()}
                     : sp::stats::ClarkLanes{om.data(), os.data(), oa.data(),
                                             oaa.data(), op.data()};
        sp::stats::clark_max_lanes({im1.data(), is1.data()},
                                   {im2.data(), is2.data()}, irho.data(), w,
                                   out);
        for (std::size_t j = 0; j < w; ++j) {
          const auto cm = sp::stats::clark_max({m1[j], s1[j]}, {m2[j], s2[j]},
                                               rho[j]);
          const std::string where = std::string(simd::backend_name(b)) +
                                    " w=" + std::to_string(w) + " lane " +
                                    std::to_string(j) +
                                    (in_place ? " in place" : "");
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.mean[j]),
                    std::bit_cast<std::uint64_t>(cm.max.mean))
              << where;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.sigma[j]),
                    std::bit_cast<std::uint64_t>(cm.max.sigma))
              << where;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.alpha[j]),
                    std::bit_cast<std::uint64_t>(cm.alpha))
              << where;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.a[j]),
                    std::bit_cast<std::uint64_t>(cm.a))
              << where;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out.phi_a[j]),
                    std::bit_cast<std::uint64_t>(cm.phi_a))
              << where;
        }
      }
    }
  }
}

TEST(SimdMatrix, SampleBlockIntoIsBackendInvariantBitwise) {
  // Same seeds, same width -> every backend must produce the identical
  // DieBlock (the field multiply is dispatched; draws are per-lane Rngs).
  sp::process::Technology tech;
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010);
  const sp::process::VariationSampler sampler(
      tech, spec, sp::process::linear_sites(37));
  const auto det = simd::detected_backends();
  for (std::size_t w : matrix_widths(sp::stats::lanes::kMaxWidth)) {
    // Reference block from the scalar backend.
    sp::process::DieBlock ref;
    {
      BackendGuard guard(simd::Backend::kScalar);
      if (w > sp::stats::lanes::max_width()) continue;
      sp::stats::Rng root(99);
      std::vector<sp::stats::Rng> rngs;
      for (std::size_t j = 0; j < w; ++j) rngs.push_back(root.fork(j));
      sp::process::BlockWorkspace ws;
      sampler.sample_block_into(rngs.data(), w, ref, ws);
    }
    for (simd::Backend b : det) {
      BackendGuard guard(b);
      if (w > sp::stats::lanes::max_width()) continue;
      sp::stats::Rng root(99);
      std::vector<sp::stats::Rng> rngs;
      for (std::size_t j = 0; j < w; ++j) rngs.push_back(root.fork(j));
      sp::process::DieBlock blk;
      sp::process::BlockWorkspace ws;
      sampler.sample_block_into(rngs.data(), w, blk, ws);
      ASSERT_EQ(blk.dvth_systematic.size(), ref.dvth_systematic.size());
      for (std::size_t i = 0; i < ref.dvth_systematic.size(); ++i)
        ASSERT_EQ(blk.dvth_systematic[i], ref.dvth_systematic[i])
            << simd::backend_name(b) << " w=" << w << " elem " << i;
      for (std::size_t i = 0; i < ref.dvth_random.size(); ++i)
        ASSERT_EQ(blk.dvth_random[i], ref.dvth_random[i]);
      for (std::size_t j = 0; j < w; ++j) {
        ASSERT_EQ(blk.dvth_inter[j], ref.dvth_inter[j]);
        ASSERT_EQ(blk.dl_inter_rel[j], ref.dl_inter_rel[j]);
      }
    }
  }
}

TEST(SimdMatrix, GateLevelMcBlockRunIsBackendAndWidthInvariantBitwise) {
  // End-to-end: full gate-level MC through the dispatched walk kernel.
  // Fix (seed, samples, shard size); sweep backend x width; every run must
  // produce the identical sample stream.
  std::vector<sp::netlist::Netlist> stages;
  for (std::size_t i = 0; i < 2; ++i) {
    stages.push_back(sp::netlist::inverter_chain(6));
    stages.back().set_name("stage" + std::to_string(i));
  }
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.020, 0.010);
  const sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);

  std::vector<double> ref;  // scalar backend, width 1
  {
    BackendGuard guard(simd::Backend::kScalar);
    sp::sim::ExecutionOptions exec;
    exec.threads = 1;
    exec.block_width = 1;
    sp::stats::Rng rng(31337);
    ref = mc.run(500, rng, exec).tp_samples;
  }
  ASSERT_EQ(ref.size(), 500u);

  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::sim::ExecutionOptions exec;
      exec.threads = 2;
      exec.block_width = w;
      sp::stats::Rng rng(31337);
      const auto r = mc.run(500, rng, exec);
      ASSERT_EQ(r.tp_samples.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(r.tp_samples[i], ref[i])
            << simd::backend_name(b) << " w=" << w << " sample " << i;
    }
  }
}

TEST(SimdMatrix, RngDrawKernelsMatchScalarReferenceBitwise) {
  // The lane-batched draw kernel (normal_fill_lanes) must reproduce each
  // lane's scalar stream bitwise on every backend at every width —
  // including through the masked ziggurat fast path and the per-lane
  // rejection fallback.  n is big enough that the ~1.2% slow path (tail +
  // wedge) fires on every (backend, width) cell.
  const std::size_t n = 2048;
  std::size_t tail_draws = 0;
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::stats::Rng root(424242);
      std::vector<sp::stats::Rng> lanes, ref;
      for (std::size_t j = 0; j < w; ++j) lanes.push_back(root.fork(j));
      ref = lanes;
      sp::stats::RngBlock rb;
      rb.pack(lanes.data(), w);
      std::vector<double> got(n * w);
      rb.normal_fill(0.35, got.data(), n, w);
      for (std::size_t j = 0; j < w; ++j) {
        std::vector<double> want(n);
        ref[j].normal_fill_scaled(0.35, want.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i * w + j], want[i])
              << simd::backend_name(b) << " w=" << w << " lane " << j
              << " draw " << i;
          if (std::abs(want[i]) > 0.35 * sp::stats::ziggurat::kR)
            ++tail_draws;
        }
      }
    }
  }
  // The matrix must actually have exercised the rejection fallback.
  EXPECT_GT(tail_draws, 0u);
}

TEST(SimdMatrix, GateLevelMcBlockRunTailHeavySeedInvariant) {
  // Second end-to-end seed for the block-run matrix, sized so the ziggurat
  // slow path fires hundreds of times per run (~1.2% of draws; one die
  // draws one normal per site plus latch overheads): the lanes that hit
  // rejection re-enter the scalar path mid-block, and the equality below
  // proves they rejoin their streams bit for bit on every backend x width.
  std::vector<sp::netlist::Netlist> stages;
  for (std::size_t i = 0; i < 2; ++i) {
    stages.push_back(sp::netlist::inverter_chain(12));
    stages.back().set_name("tail_stage" + std::to_string(i));
  }
  std::vector<const sp::netlist::Netlist*> views;
  for (const auto& s : stages) views.push_back(&s);
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::device::LatchModel latch{{}, model};
  const auto spec = sp::process::VariationSpec::inter_intra(0.030, 0.015);
  const sp::mc::GateLevelMonteCarlo mc(views, model, spec, latch);

  std::vector<double> ref;  // scalar backend, width 1
  {
    BackendGuard guard(simd::Backend::kScalar);
    sp::sim::ExecutionOptions exec;
    exec.threads = 1;
    exec.block_width = 1;
    sp::stats::Rng rng(0xD1CEBA11);
    ref = mc.run(1000, rng, exec).tp_samples;
  }
  ASSERT_EQ(ref.size(), 1000u);

  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : matrix_widths(simd::kernels().max_width)) {
      sp::sim::ExecutionOptions exec;
      exec.threads = 2;
      exec.block_width = w;
      sp::stats::Rng rng(0xD1CEBA11);
      const auto r = mc.run(1000, rng, exec);
      ASSERT_EQ(r.tp_samples.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(r.tp_samples[i], ref[i])
            << simd::backend_name(b) << " w=" << w << " sample " << i;
    }
  }
}

TEST(SimdMatrix, WalkDomainFaultThrowsTheScalarError) {
  // A die outside the variation-factor domain must stop the dispatched
  // block walk with the scalar variation_factor's std::domain_error, on
  // every backend and at every width.
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const auto nl = sp::netlist::inverter_chain(4);
  std::vector<std::size_t> sites(nl.size());
  for (std::size_t i = 0; i < sites.size(); ++i) sites[i] = i;
  const sp::sta::BoundStage stage = sp::sta::bind_stage(nl, model, sites, {});
  struct Fault {
    double dvth, dl;
    const char* message;
  };
  const Fault faults[] = {
      {5.0, 0.0, "Vth shift drives gate out of saturation"},  // Vth >> Vdd
      {0.0, -1.5, "channel length <= 0"},
  };
  for (simd::Backend b : simd::detected_backends()) {
    BackendGuard guard(b);
    for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      for (const Fault& f : faults) {
        sp::process::DieBlock block;
        block.width = w;
        block.sites = nl.size();
        block.dvth_inter.assign(w, 0.0);
        block.dl_inter_rel.assign(w, 0.0);
        block.dvth_inter[w - 1] = f.dvth;  // the last lane is the bad die
        block.dl_inter_rel[w - 1] = f.dl;
        sp::sta::StaBlockWorkspace ws;
        std::vector<double> critical(w);
        try {
          sp::sta::critical_delay_sample_block(stage, block, ws,
                                               critical.data());
          ADD_FAILURE() << "expected std::domain_error on "
                        << simd::backend_name(b) << " w=" << w;
        } catch (const std::domain_error& e) {
          EXPECT_NE(std::string(e.what()).find(f.message), std::string::npos)
              << simd::backend_name(b) << " w=" << w << ": " << e.what();
        }
      }
    }
  }
}

TEST(SimdMatrix, WalkPowDomainEdgesMatchScalarVariationFactorBitwise) {
  // Each backend's walk kernel, called directly on one gate whose fanin is
  // a primary input (arrival 0), must give lane j exactly
  // nominal * variation_factor(dvth[j], dl[j]) at every width it accepts
  // (the compiled rows up to its max_width and every run-time width), with
  // shift rows at the edges of the pow core's domain:
  //  * a drive ratio of exactly 1 (dvth = 0);
  //  * ratios at and just above min_ratio = 2^-256 (the ones just below
  //    must fault, see the second half);
  //  * the largest ratios a shift can reach: drive0 - dvth is at least
  //    ulp(drive0), so the ratio stays below ~2^53 and max_ratio = 2^256
  //    is out of reach here (test_stats holds pow_pos_row to pow_pos at
  //    x = 2^256 directly);
  //  * ratios on both sides of the m = sqrt(2) recentering boundary, at
  //    several binary exponents.
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const auto vp = model.variation_kernel_params();
  const double drive0 = vp.drive0;
  constexpr double kSqrt2 = 1.4142135623730951;
  const auto ratio_of = [&](double dvth) { return drive0 / (drive0 - dvth); };
  const auto mantissa = [](double r) {
    return std::bit_cast<double>((std::bit_cast<std::uint64_t>(r) &
                                  0x000fffffffffffffULL) |
                                 0x3ff0000000000000ULL);
  };

  std::vector<double> shifts{0.0};
  std::vector<double> faulting;
  double d = drive0;
  for (int k = 0; k < 8; ++k) shifts.push_back(d = std::nextafter(d, 0.0));
  const double low = -std::ldexp(drive0, 256);
  d = std::nextafter(low, 0.0);
  for (int k = 0; k < 3; ++k) d = std::nextafter(d, 0.0);
  for (int k = 0; k < 8; ++k, d = std::nextafter(d, -INFINITY))
    (ratio_of(d) >= vp.min_ratio ? shifts : faulting).push_back(d);
  int below = 0, above = 0;
  for (int e : {-3, 0, 1, 5}) {
    const double r = std::ldexp(kSqrt2, e);
    double c = drive0 - drive0 / r;
    for (int k = 0; k < 16; ++k) c = std::nextafter(c, -INFINITY);
    for (int k = 0; k < 33; ++k, c = std::nextafter(c, INFINITY)) {
      shifts.push_back(c);
      (mantissa(ratio_of(c)) >= kSqrt2 ? above : below) += 1;
    }
  }
  ASSERT_GT(below, 0);
  ASSERT_GT(above, 0);
  ASSERT_GT(faulting.size(), 0u);
  ASSERT_EQ(ratio_of(low), vp.min_ratio);
  const double dls[] = {0.0, -0.5, 0.25, -1.0 + 0x1p-30};

  // One gate (row 1) fed by a primary input (row 0, arrival 0) and read
  // as the one primary output; the shift rows are the die block.
  struct OneGate {
    std::vector<double> arrival, scratch_dvth, scratch_dl, critical;
    std::size_t fault = 0;
  };
  const auto walk = [&](const simd::KernelTable& kt,
                        const std::vector<double>& dvth,
                        const std::vector<double>& dl) {
    const std::size_t w = dvth.size();
    const std::size_t gate_id = 1, site = 0, fanin = 0, output = 1;
    const std::size_t fanin_begin[] = {0, 1};
    const double nominal = 7.25, sqrt_size = 1.0;
    OneGate g{std::vector<double>(2 * w, 0.0), std::vector<double>(w),
              std::vector<double>(w), std::vector<double>(w)};
    simd::StaWalkArgs a;
    a.width = w;
    a.n_gates = 1;
    a.gate_ids = &gate_id;
    a.site = &site;
    a.nominal = &nominal;
    a.sqrt_size = &sqrt_size;
    a.fanin_begin = fanin_begin;
    a.fanins = &fanin;
    a.dvth_inter = dvth.data();
    a.dl_inter = dl.data();
    a.drive0 = vp.drive0;
    a.alpha = vp.alpha;
    a.min_ratio = vp.min_ratio;
    a.max_ratio = vp.max_ratio;
    a.arrival = g.arrival.data();
    a.dvth = g.scratch_dvth.data();
    a.dl = g.scratch_dl.data();
    a.outputs = &output;
    a.n_outputs = 1;
    a.critical = g.critical.data();
    g.fault = kt.sta_block_walk(a);
    return g;
  };

  std::size_t rows = 0;
  for (simd::Backend b : simd::detected_backends()) {
    const simd::KernelTable& kt = *simd::kernels_for(b);
    for (std::size_t w = 1; w <= kt.max_width; ++w) {
      // Every shift at every width, w lanes per call, the last call padded
      // with dvth = 0; lane j's dl cycles through dls.
      for (std::size_t c = 0; c < shifts.size(); c += w) {
        std::vector<double> dvth(w, 0.0), dl(w);
        for (std::size_t j = 0; j < w; ++j) {
          if (c + j < shifts.size()) dvth[j] = shifts[c + j];
          dl[j] = dls[(c + j) % std::size(dls)];
        }
        const OneGate g = walk(kt, dvth, dl);
        ASSERT_EQ(g.fault, simd::kNoFault)
            << simd::backend_name(b) << " w=" << w << " call " << c;
        for (std::size_t j = 0; j < w; ++j)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(g.critical[j]),
                    std::bit_cast<std::uint64_t>(
                        7.25 * model.variation_factor(dvth[j], dl[j])))
              << simd::backend_name(b) << " w=" << w << " dvth " << dvth[j]
              << " dl " << dl[j];
        ++rows;
      }
      // A ratio just below min_ratio in the last lane stops the walk at
      // gate 0 with the row's shifts left for the caller, and the scalar
      // check rejects it.
      for (double f : faulting) {
        std::vector<double> dvth(w, 0.0), dl(w, 0.0);
        dvth[w - 1] = f;
        const OneGate g = walk(kt, dvth, dl);
        ASSERT_EQ(g.fault, 0u) << simd::backend_name(b) << " w=" << w;
        ASSERT_EQ(g.scratch_dvth, dvth);
        ASSERT_EQ(g.scratch_dl, dl);
        EXPECT_THROW((void)model.variation_factor(f, 0.0), std::domain_error);
      }
    }
  }
  EXPECT_GT(rows, 0u);
}
