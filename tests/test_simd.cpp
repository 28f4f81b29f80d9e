// Tests for the runtime-dispatched SIMD backend layer (stats/simd.h):
// detection and STATPIPE_SIMD resolution, and the per-backend bitwise
// self-consistency matrix — scalar reference vs. every backend this
// machine can run, at every width the backend accepts, through the ported
// kernels (pow_pos, canonical_max_lanes, sample_block_into), a full
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
#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "device/latch.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "process/variation.h"
#include "sta/ssta.h"
#include "sta/sta.h"
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

namespace {

using sp::sta::CanonicalDelay;

/// n canonical delays as the kernel takes them: four SoA arrays.
struct CanonicalSoa {
  std::vector<double> mu, b_inter, sigma_ind, b_sys;

  explicit CanonicalSoa(const std::vector<CanonicalDelay>& d) {
    for (const CanonicalDelay& c : d) {
      mu.push_back(c.mu);
      b_inter.push_back(c.b_inter);
      sigma_ind.push_back(c.sigma_ind);
      b_sys.push_back(c.b_sys);
    }
  }
};

/// Table kt's canonical_max_lanes over lanes (x[j], y[j]), in place in x.
bool run_canonical_max_lanes(const simd::KernelTable& kt, CanonicalSoa& x,
                             const CanonicalSoa& y) {
  return kt.canonical_max_lanes(x.mu.data(), x.b_inter.data(),
                                x.sigma_ind.data(), x.b_sys.data(),
                                y.mu.data(), y.b_inter.data(),
                                y.sigma_ind.data(), y.b_sys.data(),
                                x.mu.size());
}

/// Holds every lane of kt's canonical_max_lanes over (x[j], y[j]) to
/// scalar sta::canonical_max, bit for bit; the kernel must flag no lane.
void expect_canonical_max_lanes_match(const simd::KernelTable& kt,
                                      const std::vector<CanonicalDelay>& x,
                                      const std::vector<CanonicalDelay>& y,
                                      const std::string& where) {
  CanonicalSoa acc(x);
  ASSERT_FALSE(run_canonical_max_lanes(kt, acc, CanonicalSoa(y))) << where;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t j = 0; j < x.size(); ++j) {
    const CanonicalDelay r = sp::sta::canonical_max(x[j], y[j]);
    const std::string lane = where + " lane " + std::to_string(j);
    ASSERT_EQ(bits(acc.mu[j]), bits(r.mu)) << lane;
    ASSERT_EQ(bits(acc.b_inter[j]), bits(r.b_inter)) << lane;
    ASSERT_EQ(bits(acc.sigma_ind[j]), bits(r.sigma_ind)) << lane;
    ASSERT_EQ(bits(acc.b_sys[j]), bits(r.b_sys)) << lane;
  }
}

}  // namespace

TEST(SimdMatrix, CanonicalMaxLanesMatchesScalarCanonicalMaxBitwise) {
  // One named lane per select arm of the kernel (the scalar operator's
  // branches), then the Gaussian core's edges, then random lanes.  The
  // hex operands were found by searching random pairs for each arm.
  struct Named {
    const char* arm;
    CanonicalDelay x, y;
  };
  const std::vector<Named> named = {
      {"generic", {100.0, 3.0, 2.0, 1.0}, {102.0, 2.5, 1.5, 0.7}},
      // a = sd(X1 - X2) < 1e-12: the max is the input with the larger mean.
      {"degenerate, first wins", {100.0, 4.0, 0.0, 0.0}, {95.0, 4.0, 0.0, 0.0}},
      {"degenerate, second wins", {90.0, 4.0, 0.0, 0.0}, {95.0, 4.0, 0.0, 0.0}},
      {"degenerate, both sigmas zero", {100.0, 0.0, 0.0, 0.0},
       {99.0, 0.0, 0.0, 0.0}},
      // correlation() is 0 when a sigma is 0.
      {"zero-sigma operand", {100.0, 0.0, 0.0, 0.0}, {98.0, 1.5, 2.0, 0.5}},
      {"zero-sigma operand, second", {97.0, 1.5, 2.0, 0.5},
       {100.0, 0.0, 0.0, 0.0}},
      // Re-projection rescale (resid < 0, var > 0), with and without a
      // degenerate Clark step (equal shared parts, no private part).
      {"rescale",
       {0x1.5b432676f5309p+3, 0x1.10d14a0c1f76p-3, 0.0, 0x1.cb6216fe317dp-1},
       {0x1.523723629479cp+3, 0x1.1d603ebb850bbp-3, 0.0,
        0x1.e08795e62749dp-1}},
      {"rescale, degenerate",
       {0x1.5532c8269d592p+3, 0x1.03a33cd8a155p+1, 0.0, 0x1.2ce9ebaa01228p-1},
       {0x1.50d30fbcabbdep+3, 0x1.03a33cd8a155p+1, 0.0,
        0x1.2ce9ebaa01228p-1}},
      // Cancellation leaves no variance (resid < 0, var == 0): only the
      // mean survives.
      {"zero variance",
       {0x1.e848p+19, 0x1.9ca907645424dp-11, 0x1.6930e08e469acp-14, 0.0},
       {0x1.e84800041d6d4p+19, 0x1.171d30268b025p-12, 0x1.803e6e33359d4p-11,
        0.0}},
      // The correlation ratio rounds past +-1 and is clamped.
      {"rho clamped at +1",
       {0x1.55a13c88d7edp+3, 0x1.0274f8e9f6c87p+1, 0.0, 0x1.d9059337943b6p-4},
       {0x1.42e4491a7143fp+3, 0x1.eb5dd11d992f8p+0, 0.0,
        0x1.c1a4c7f60f6bdp-4}},
      {"rho clamped at -1",
       {0x1.43764348208d3p+3, 0x1.f331aeed87a44p-3, 0.0, 0x1.5794d23c1c12ap-3},
       {0x1.490a0c7b796e6p+3, -0x1.13fdf8731bc42p-2, 0.0,
        -0x1.7bea4ea2ba2acp-3}},
  };
  std::vector<CanonicalDelay> pool_x, pool_y;
  for (const Named& l : named) {
    pool_x.push_back(l.x);
    pool_y.push_back(l.y);
  }
  // Gaussian-core edges: with a private sigma of 1 against a constant, the
  // correlation is 0 and a is exactly 1, so alpha is the mean gap.
  for (double al : {0.0, -0.0, 1e-300, 1e-8, 0.5, 1.0, 5.0, 8.3, 20.0, 37.0,
                    37.5, 38.5, 39.0, 40.0, 1e3, 1e15})
    for (double sign : {1.0, -1.0}) {
      pool_x.push_back({sign * al, 0.0, 1.0, 0.0});
      pool_y.push_back({0.0, 0.0, 0.0, 0.0});
    }
  pool_x.push_back({1e150, 0.0, 3.0, 0.0});
  pool_y.push_back({-1e150, 0.0, 4.0, 0.0});
  pool_x.push_back({-1e150, 1.0, 3.0, 0.5});
  pool_y.push_back({1e150, 2.0, 4.0, 0.25});
  sp::stats::Rng rng(777);
  const auto random_delay = [&] {
    return CanonicalDelay{rng.uniform(-5.0, 5.0), rng.uniform(-3.0, 3.0),
                          rng.uniform(0.0, 3.0), rng.uniform(-3.0, 3.0)};
  };
  for (int i = 0; i < 200; ++i) {
    pool_x.push_back(random_delay());
    pool_y.push_back(random_delay());
  }

  // Each width twice: the named lanes first, then last (so they also run
  // in the kernel's scalar remainder loop).
  for (simd::Backend b : simd::detected_backends()) {
    const simd::KernelTable& kt = *simd::kernels_for(b);
    for (std::size_t w : {1, 3, 8, 17, 64, 1000})
      for (bool reversed : {false, true}) {
        std::vector<CanonicalDelay> x(w), y(w);
        for (std::size_t j = 0; j < w; ++j) {
          const std::size_t i = (reversed ? w - 1 - j : j) % pool_x.size();
          x[j] = pool_x[i];
          y[j] = pool_y[i];
        }
        expect_canonical_max_lanes_match(
            kt, x, y,
            std::string(kt.name) + " w=" + std::to_string(w) +
                (reversed ? " reversed" : ""));
      }
  }
}

TEST(SimdMatrix, CanonicalMaxLanesFlagsWhatClarkMaxRejects) {
  // A NaN sigma, or infinite shared parts whose correlation is inf/inf,
  // fails clark_max's input check: the scalar operator throws and the
  // kernel flags the call, wherever the lane sits.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<CanonicalDelay, CanonicalDelay>> bad = {
      {{1.0, 1.0, nan, 0.0}, {0.0, 1.0, 1.0, 0.0}},
      {{1.0, 1.0, 1.0, 0.0}, {0.0, nan, 1.0, 0.0}},
      {{1.0, inf, 1.0, 0.0}, {0.0, inf, 1.0, 0.0}},
  };
  const CanonicalDelay ok{2.0, 1.0, 1.0, 0.5};
  for (const auto& [x, y] : bad)
    EXPECT_THROW(sp::sta::canonical_max(x, y), std::invalid_argument);
  for (simd::Backend b : simd::detected_backends()) {
    const simd::KernelTable& kt = *simd::kernels_for(b);
    for (std::size_t w : {1, 3, 8, 17})
      for (std::size_t at : {std::size_t{0}, w / 2, w - 1})
        for (std::size_t c = 0; c <= bad.size(); ++c) {
          std::vector<CanonicalDelay> x(w, ok), y(w, ok);
          if (c < bad.size()) std::tie(x[at], y[at]) = bad[c];
          CanonicalSoa acc(x);
          EXPECT_EQ(run_canonical_max_lanes(kt, acc, CanonicalSoa(y)),
                    c < bad.size())
              << kt.name << " w=" << w << " lane " << at << " case " << c;
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
