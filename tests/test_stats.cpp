// Unit tests for the stats substrate: Gaussian primitives and their core
// (against the mpmath table in normal_table.inc), Clark's operator,
// correlation matrices, the Rng, histograms, KS distance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/clark.h"
#include "stats/descriptive.h"
#include "stats/gaussian.h"
#include "stats/histogram.h"
#include "stats/ks.h"
#include "stats/lanes.h"
#include "stats/matrix.h"
#include "stats/rng.h"

namespace sp = statpipe::stats;

// ---------------------------------------------------------------- Gaussian

TEST(Gaussian, PdfMatchesKnownValues) {
  EXPECT_NEAR(sp::normal_pdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_NEAR(sp::normal_pdf(1.0), 0.24197072451914337, 1e-15);
  EXPECT_NEAR(sp::normal_pdf(-1.0), sp::normal_pdf(1.0), 1e-18);
}

TEST(Gaussian, CdfMatchesKnownValues) {
  EXPECT_NEAR(sp::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(sp::normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(sp::normal_cdf(-1.96), 0.024997895148220435, 1e-12);
  EXPECT_NEAR(sp::normal_cdf(6.0), 1.0 - 9.865876e-10, 1e-12);
}

TEST(Gaussian, SfIsComplementAndTailAccurate) {
  EXPECT_NEAR(sp::normal_sf(1.0), 1.0 - sp::normal_cdf(1.0), 1e-15);
  // Deep tail: Phi(-10) ~ 7.62e-24; naive 1-Phi(10) would round to 0.
  EXPECT_NEAR(sp::normal_sf(10.0) / 7.619853024160527e-24, 1.0, 1e-9);
}

TEST(Gaussian, IcdfRoundTrips) {
  for (double p : {1e-9, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.9283, 0.99, 1.0 - 1e-9}) {
    const double x = sp::normal_icdf(p);
    EXPECT_NEAR(sp::normal_cdf(x), p, 1e-12) << "p=" << p;
  }
}

TEST(Gaussian, IcdfKnownQuantiles) {
  EXPECT_NEAR(sp::normal_icdf(0.5), 0.0, 1e-12);
  EXPECT_NEAR(sp::normal_icdf(0.8413447460685429), 1.0, 1e-9);
  EXPECT_NEAR(sp::normal_icdf(0.975), 1.959963984540054, 1e-9);
}

TEST(Gaussian, IcdfRejectsOutOfDomain) {
  EXPECT_THROW(sp::normal_icdf(0.0), std::domain_error);
  EXPECT_THROW(sp::normal_icdf(1.0), std::domain_error);
  EXPECT_THROW(sp::normal_icdf(-0.3), std::domain_error);
  EXPECT_THROW(sp::normal_icdf(1.7), std::domain_error);
}

TEST(Gaussian, StructOperations) {
  const sp::Gaussian a{10.0, 3.0}, b{20.0, 4.0};
  const auto s = a + b;
  EXPECT_DOUBLE_EQ(s.mean, 30.0);
  EXPECT_DOUBLE_EQ(s.sigma, 5.0);
  const auto sc = 2.0 * a;
  EXPECT_DOUBLE_EQ(sc.mean, 20.0);
  EXPECT_DOUBLE_EQ(sc.sigma, 6.0);
  const auto sh = a + 5.0;
  EXPECT_DOUBLE_EQ(sh.mean, 15.0);
  EXPECT_DOUBLE_EQ(sh.sigma, 3.0);
  EXPECT_NEAR(a.cdf(10.0), 0.5, 1e-15);
  EXPECT_NEAR(a.quantile(0.5), 10.0, 1e-12);
  EXPECT_NEAR(a.variability(), 0.3, 1e-15);
}

TEST(Gaussian, IidSumMatchesInverterChainRelation) {
  // eq. (13): mu = NL*mu_min, sigma = sqrt(NL)*sigma_min.
  const sp::Gaussian unit{4.0, 0.5};
  const auto chain = sp::iid_sum(unit, 16.0);
  EXPECT_DOUBLE_EQ(chain.mean, 64.0);
  EXPECT_DOUBLE_EQ(chain.sigma, 2.0);
}

TEST(Gaussian, DegenerateSigmaCdf) {
  const sp::Gaussian d{5.0, 0.0};
  EXPECT_DOUBLE_EQ(d.cdf(4.999), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(5.0), 1.0);
}

// ------------------------------------------------------------ Gaussian core

namespace {

struct NormalRef {
  double x;
  long double cdf, sf, pdf;  // mpmath, 30 digits
};

// tools/gen_normal_core.py writes this table with the core's coefficients.
const NormalRef kNormalTable[] = {
#include "normal_table.inc"
};

long double rel_err(double got, long double want) {
  return std::fabs((static_cast<long double>(got) - want) / want);
}

}  // namespace

TEST(NormalCore, MatchesMpmathTableWithinStatedBound) {
  // The bound is no looser than the libm path it replaced, whose maximum
  // relative error of min(Phi(x), Phi(-x)) on a 0.01 grid was 3.2e-15 for
  // |x| <= 5, 5.2e-14 for |x| <= 20 and 1.8e-13 for |x| <= 37.  Past the
  // point where the tail turns subnormal, relative error is meaningless;
  // the absolute error must stay within two subnormal steps.
  constexpr long double kRelBound = 1e-15L;
  constexpr long double kSubnormalAbs = 2.0L * 0x1p-1074L;
  ASSERT_GE(std::size(kNormalTable), 200u);
  long double worst_tail = 0.0L, worst_pdf = 0.0L;
  for (const NormalRef& r : kNormalTable) {
    SCOPED_TRACE("x = " + std::to_string(r.x));
    ASSERT_LE(std::fabs(r.x), 38.0);
    const sp::lanes::NormalCore g = sp::lanes::normal_core(r.x);
    // The tail side carries the relative accuracy; the other side is
    // 1 - tail, so its error is the tail's absolute error.
    const bool neg = r.x < 0.0;
    const double tail = neg ? g.cdf : g.sf;
    const double body = neg ? g.sf : g.cdf;
    const long double tail_ref = neg ? r.cdf : r.sf;
    const long double body_ref = neg ? r.sf : r.cdf;
    if (tail_ref >= static_cast<long double>(DBL_MIN)) {
      worst_tail = std::max(worst_tail, rel_err(tail, tail_ref));
      EXPECT_LE(rel_err(tail, tail_ref), kRelBound);
    } else {
      EXPECT_LE(std::fabs(tail - tail_ref), kSubnormalAbs);
    }
    EXPECT_LE(rel_err(body, body_ref), kRelBound);
    if (r.pdf >= static_cast<long double>(DBL_MIN)) {
      worst_pdf = std::max(worst_pdf, rel_err(g.pdf, r.pdf));
      EXPECT_LE(rel_err(g.pdf, r.pdf), kRelBound);
    } else {
      EXPECT_LE(std::fabs(g.pdf - r.pdf), kSubnormalAbs);
    }
    // The stats:: wrappers are the core, bit for bit.
    EXPECT_EQ(sp::normal_cdf(r.x), g.cdf);
    EXPECT_EQ(sp::normal_sf(r.x), g.sf);
    EXPECT_EQ(sp::normal_pdf(r.x), g.pdf);
  }
  RecordProperty("max_rel_err_tail", std::to_string(worst_tail));
  RecordProperty("max_rel_err_pdf", std::to_string(worst_pdf));
}

TEST(NormalCore, ExactAnchors) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double zero : {0.0, -0.0}) {
    const sp::lanes::NormalCore g = sp::lanes::normal_core(zero);
    EXPECT_EQ(g.cdf, 0.5);
    EXPECT_EQ(g.sf, 0.5);
    EXPECT_EQ(g.pdf, 0x1.9884533d43651p-2);  // 1/sqrt(2 pi), rounded
  }
  const sp::lanes::NormalCore hi = sp::lanes::normal_core(inf);
  EXPECT_EQ(hi.cdf, 1.0);
  EXPECT_EQ(hi.sf, 0.0);
  EXPECT_EQ(hi.pdf, 0.0);
  const sp::lanes::NormalCore lo = sp::lanes::normal_core(-inf);
  EXPECT_EQ(lo.cdf, 0.0);
  EXPECT_EQ(lo.sf, 1.0);
  EXPECT_EQ(lo.pdf, 0.0);
  const sp::lanes::NormalCore nan = sp::lanes::normal_core(std::nan(""));
  EXPECT_TRUE(std::isnan(nan.cdf));
  EXPECT_TRUE(std::isnan(nan.sf));
  EXPECT_TRUE(std::isnan(nan.pdf));
  EXPECT_EQ(sp::normal_cdf(-1e300), 0.0);
  EXPECT_EQ(sp::normal_cdf(1e300), 1.0);
}

TEST(NormalCore, MonotoneAndComplementaryOnADenseGrid) {
  // Phi non-decreasing and phi symmetric at every step of 2^-12 over
  // [-40, 40]; Phi(x) + Phi(-x) within one ulp of 1.
  double prev = 0.0;
  for (int i = -40 * 4096; i <= 40 * 4096; ++i) {
    const double x = i * 0x1p-12;
    const sp::lanes::NormalCore g = sp::lanes::normal_core(x);
    ASSERT_GE(g.cdf, prev) << "x = " << x;
    prev = g.cdf;
    ASSERT_EQ(g.pdf, sp::lanes::normal_core(-x).pdf) << "x = " << x;
    ASSERT_EQ(g.cdf, sp::lanes::normal_core(-x).sf) << "x = " << x;
    ASSERT_LE(std::fabs((g.cdf + g.sf) - 1.0), 0x1p-52) << "x = " << x;
  }
}

TEST(NormalCore, ExpCoreAnchors) {
  EXPECT_EQ(sp::lanes::exp_core(0.0, 0.0), 1.0);
  EXPECT_EQ(sp::lanes::exp_core(-0.0, 0.0), 1.0);
  // Below -745.14, exp rounds to zero: the core returns +0, -inf included.
  for (double y : {-745.2, -760.0, -768.0, -1000.0, -1e300,
                   -std::numeric_limits<double>::infinity()}) {
    const double e = sp::lanes::exp_core(y, 0.0);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e), 0u) << "y = " << y;
  }
  // Gradual underflow just above the threshold, normal results elsewhere.
  EXPECT_GT(sp::lanes::exp_core(-745.0, 0.0), 0.0);
  EXPECT_LT(sp::lanes::exp_core(-745.0, 0.0), DBL_MIN);
  EXPECT_TRUE(std::isnan(sp::lanes::exp_core(std::nan(""), 0.0)));
  for (double y : {-1e-8, -0.3, -1.0, -20.0, -300.0, -700.0}) {
    EXPECT_NEAR(sp::lanes::exp_core(y, 0.0) / std::exp(y), 1.0, 4e-16)
        << "y = " << y;
  }
}

// ---------------------------------------------------------------- Clark op

TEST(Clark, EqualIndependentVariables) {
  // max of two iid N(0,1): mean = 1/sqrt(pi), var = 1 - 1/pi (exact).
  const auto cm = sp::clark_max({0.0, 1.0}, {0.0, 1.0}, 0.0);
  EXPECT_NEAR(cm.max.mean, 1.0 / std::sqrt(M_PI), 1e-12);
  EXPECT_NEAR(cm.max.sigma * cm.max.sigma, 1.0 - 1.0 / M_PI, 1e-12);
}

TEST(Clark, DominantVariableWins) {
  // When X1 >> X2 the max is X1.
  const auto cm = sp::clark_max({100.0, 1.0}, {0.0, 1.0}, 0.0);
  EXPECT_NEAR(cm.max.mean, 100.0, 1e-9);
  EXPECT_NEAR(cm.max.sigma, 1.0, 1e-9);
}

TEST(Clark, PerfectlyCorrelatedEqualSigmaIsExact) {
  // rho=1, equal sigma: X1-X2 deterministic, max = larger-mean input.
  const auto cm = sp::clark_max({10.0, 2.0}, {12.0, 2.0}, 1.0);
  EXPECT_DOUBLE_EQ(cm.max.mean, 12.0);
  EXPECT_DOUBLE_EQ(cm.max.sigma, 2.0);
}

TEST(Clark, SymmetricInArguments) {
  const auto ab = sp::clark_max({5.0, 1.0}, {6.0, 2.0}, 0.3);
  const auto ba = sp::clark_max({6.0, 2.0}, {5.0, 1.0}, 0.3);
  EXPECT_NEAR(ab.max.mean, ba.max.mean, 1e-12);
  EXPECT_NEAR(ab.max.sigma, ba.max.sigma, 1e-12);
}

TEST(Clark, MeanAboveJensenLowerBound) {
  // E[max] >= max(E[X1], E[X2]) (eq. 3).
  const auto cm = sp::clark_max({10.0, 2.0}, {10.5, 3.0}, 0.2);
  EXPECT_GE(cm.max.mean, 10.5);
}

TEST(Clark, CorrelationIncreasesReducesMaxMean) {
  // More correlation -> less independent "spread" -> smaller E[max].
  double prev = 1e9;
  for (double rho : {0.0, 0.3, 0.6, 0.9}) {
    const auto cm = sp::clark_max({10.0, 2.0}, {10.0, 2.0}, rho);
    EXPECT_LT(cm.max.mean, prev);
    prev = cm.max.mean;
  }
}

TEST(Clark, RejectsBadInputs) {
  EXPECT_THROW(sp::clark_max({0.0, -1.0}, {0.0, 1.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(sp::clark_max({0.0, 1.0}, {0.0, 1.0}, 1.5),
               std::invalid_argument);
}

TEST(Clark, RejectsNaNSigmaOrRho) {
  // NaN fails the sigma >= 0 and |rho| <= 1 checks.  The lane kernel flags
  // the same lanes and the fold replays them through the scalar operator
  // (test_sta's LaneFold.* cases).
  const double nan = std::nan("");
  EXPECT_THROW(sp::clark_max({0.0, nan}, {0.0, 1.0}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(sp::clark_max({0.0, 1.0}, {0.0, nan}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(sp::clark_max({0.0, 1.0}, {0.0, 1.0}, nan),
               std::invalid_argument);
}

TEST(Rng, ZigguratNormalMomentsAndTails) {
  // The ziggurat sampler must reproduce the standard normal's body AND its
  // tails (yield estimates live at 3 sigma).  200k draws: the tolerances
  // below sit 4+ sampling sigmas from the true values.
  sp::Rng rng(2718);
  const std::size_t n = 200000;
  sp::RunningStats rs;
  std::size_t beyond3 = 0, beyond4 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.normal();
    rs.add(x);
    if (std::abs(x) > 3.0) ++beyond3;
    if (std::abs(x) > 4.0) ++beyond4;
  }
  EXPECT_NEAR(rs.mean(), 0.0, 0.01);
  EXPECT_NEAR(rs.stddev(), 1.0, 0.01);
  // P(|X| > 3) = 2.6998e-3 -> expect ~540 of 200k, sd ~23.
  EXPECT_NEAR(static_cast<double>(beyond3), 2.6998e-3 * n, 100.0);
  // P(|X| > 4) = 6.334e-5 -> expect ~12.7 of 200k.
  EXPECT_GT(beyond4, 0u);
  EXPECT_LT(beyond4, 40u);
}

// Golden pins: the first 64 raw engine words and the first 64 ziggurat
// normals for seed 42, captured from this implementation.  These freeze the
// bit-exact stream contract every reproducibility guarantee in the library
// rests on — any change to splitmix64 seeding, the xoshiro256** recurrence,
// the ziggurat tables, or the accept/reject structure trips them.
TEST(Rng, GoldenXoshiroStream) {
  static constexpr std::uint64_t kExpected[64] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
      0xe0b55a68b96677faULL, 0x9de4159eda9cef95ULL, 0xd9f4b354ec3844d4ULL,
      0xb5215f43ed431a77ULL, 0xb5344cbe421f4f3aULL, 0x17c5ad539dbb98d9ULL,
      0x2dd4705aaba5de2bULL, 0x6faa904a94c529bdULL, 0x9a1da25458817417ULL,
      0x5061938da99c7af0ULL, 0x7d3babc0d1e23440ULL, 0x6624536f5ad584d4ULL,
      0xca03e50015c044b8ULL, 0xa293144f4f3bd3faULL, 0x3b38bd77133b0bdaULL,
      0x6a0da881492d3bfdULL, 0x9f6b51d30d502b3aULL, 0xdcf83ab9a2b09168ULL,
      0xf1dbbb3e7caf8512ULL, 0xd06fa2c515268d8aULL, 0xbf3b601241d6460cULL,
      0xc8dac160a4cf65b7ULL, 0x0b79e57de69e68a1ULL, 0x77ffe08aaffca9f2ULL,
      0xf8dae1deeb08090bULL, 0x896c10e1f50e7c45ULL, 0xb35f3c33364236adULL,
      0xcdb713a2484aba0dULL, 0xd17557ee842fc622ULL, 0xe5fa6d9f51a65be7ULL,
      0x202a8f768818eb71ULL, 0x90a2b65696578132ULL, 0x8de344cfe2c7f797ULL,
      0xdb73c7b4d941a5a9ULL, 0xd3e1718bf28e10a9ULL, 0x850b3263a0953dbbULL,
      0x51466fd43f32a0ecULL, 0x3130eb9b89d02158ULL, 0xa4d4d91162b2d044ULL,
      0x0752374ea697b934ULL, 0x5bb7058b670da327ULL, 0x91be7d3d72cec5d7ULL,
      0xc687f6037de59e9cULL, 0x81dbd737ae287209ULL, 0x9eb080fc911ead60ULL,
      0xf3759893228a56ecULL, 0xf18b1a75d5c9a1abULL, 0x3818ca12dc164711ULL,
      0xc990d448a6cc309eULL};
  sp::Xoshiro256 eng(42);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(eng(), kExpected[i]) << "word " << i;
}

TEST(Rng, GoldenZigguratNormals) {
  static constexpr double kExpected[64] = {
      -0x1.b93c3f928ef82p-3, 0x1.2c8cd6d008acep-1,  -0x1.c978a68362547p-1,
      0x1.37064cee8dd3dp+0,  0x1.b7b487499e928p+0,  0x1.9e7f1b2747d3p+0,
      -0x1.b8dda3d900f8dp-1, 0x1.43d0e95e533bp+0,   0x1.2de7621c8bf97p+0,
      0x1.32c153d93c17cp+0,  -0x1.1e470a857fe1p+0,  -0x1.00a57e28ab7f8p-1,
      0x1.df62de591627fp-1,  -0x1.4a512c63322p-1,   -0x1.6a586baaecae7p-1,
      -0x1.89419a36e23ffp-2, -0x1.b8545a2543115p-1, 0x1.983355bc5c7efp-1,
      0x1.213e09041428dp+0,  -0x1.79855e9ba9dd5p+0, 0x1.5338abcb97cp-4,
      0x1.9bfcc2c9a88p-2,    -0x1.f38117e4e1f87p-2, 0x1.88e00de5a01f2p+0,
      0x1.96741e2684a4p-3,   0x1.fb5f71ef3673fp-1,  0x1.7e983d04d49acp-2,
      0x1.d27c6ccee03a2p-1,  -0x1.1c8473ce2e1c2p-2, -0x1.a229a65a9ee4bp-3,
      -0x1.1cd9456c79112p-3, -0x1.4c224a734b622p+0, -0x1.783bb7c5bce79p+0,
      -0x1.4138da836e374p+1, -0x1.31facbc2ea8bcp+0, 0x1.0de982db9c8c3p+1,
      -0x1.d2aef3117872bp-1, 0x1.e281d3ed61958p-5,  -0x1.208770a18024bp-2,
      -0x1.6381b34f86e91p+1, 0x1.101e1ede56192p+0,  0x1.b9f8213c28dd6p-1,
      0x1.1f113f778e4b9p+1,  0x1.efa0cf5ae83ffp+0,  -0x1.588890bab2fa5p-1,
      -0x1.a5a99d168048fp-3, -0x1.39619957c0f6dp+0, -0x1.87e76d273e94p-1,
      -0x1.146761b6c74cbp+0, 0x1.0ade0399c3eccp+0,  -0x1.2d73f54bb73cap-1,
      0x1.bf2ffe65455c1p-3,  -0x1.66991b598fcfbp-2, 0x1.47de00f2b0b96p+0,
      -0x1.f68b3487b2b7bp-5, -0x1.a57897b13283bp-1, -0x1.094031034395p-1,
      0x1.0b871c4d07dcdp+0,  0x1.7d0d9fea54817p+0,  -0x1.17857a792721cp+0,
      0x1.4ee316702013p-1,   -0x1.2ce966078583bp+0, -0x1.2cbc9cbeb70d5p-1,
      0x1.0ce8922c11833p+0};
  sp::Rng rng(42);
  for (int i = 0; i < 64; ++i) {
    const double v = rng.normal();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
              std::bit_cast<std::uint64_t>(kExpected[i]))
        << "draw " << i;
  }
}

// ---------------------------------------------------------------- RngBlock

TEST(RngBlock, PackUnpackRoundTripsEngineState) {
  const std::size_t w = 8;
  std::vector<sp::Rng> lanes;
  sp::Rng root(1234);
  for (std::size_t j = 0; j < w; ++j) lanes.push_back(root.fork(j));

  sp::RngBlock rb;
  rb.pack(lanes.data(), w);
  ASSERT_EQ(rb.width(), w);

  // Unpack into fresh Rngs: they must continue each lane's stream exactly.
  std::vector<sp::Rng> out(w, sp::Rng(0));
  rb.unpack(out.data());
  for (std::size_t j = 0; j < w; ++j) {
    sp::Rng ref = root.fork(j);
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[j].normal()),
                std::bit_cast<std::uint64_t>(ref.normal()))
          << "lane " << j << " draw " << i;
  }
}

TEST(RngBlock, PackRejectsBadWidths) {
  sp::Rng one(1);
  sp::RngBlock rb;
  EXPECT_THROW(rb.pack(&one, 0), std::invalid_argument);
  EXPECT_THROW(rb.pack(&one, sp::lanes::kMaxWidth + 1), std::invalid_argument);
  // Unpacked block refuses to draw.
  double x = 0.0;
  EXPECT_THROW(rb.normal_fill(1.0, &x, 1, 1), std::logic_error);
}

TEST(RngBlock, NormalFillMatchesPerLaneScalarBitwise) {
  // Per-lane stream identity: lane j of the block draw must be bitwise the
  // sequence Rng lane j produces scalar-side.  n*w large enough that the
  // ~1.2% ziggurat slow path (tail + wedge) fires many times per lane.
  for (std::size_t w : {std::size_t{1}, std::size_t{8}, std::size_t{16}}) {
    const std::size_t n = 4096;
    sp::Rng root(777);
    std::vector<sp::Rng> lanes, ref;
    for (std::size_t j = 0; j < w; ++j) lanes.push_back(root.fork(j));
    ref = lanes;

    sp::RngBlock rb;
    rb.pack(lanes.data(), w);
    std::vector<double> got(n * w);
    rb.normal_fill(1.75, got.data(), n, w);
    rb.unpack(lanes.data());

    std::size_t tail_draws = 0;
    for (std::size_t j = 0; j < w; ++j) {
      std::vector<double> want(n);
      ref[j].normal_fill_scaled(1.75, want.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i * w + j]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << "w=" << w << " lane " << j << " draw " << i;
        if (std::abs(want[i]) > 1.75 * sp::ziggurat::kR) ++tail_draws;
      }
      // The advanced lane states must agree too: next draws line up.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes[j].normal()),
                std::bit_cast<std::uint64_t>(ref[j].normal()));
    }
    // Make sure this test actually exercised the rejection fallback.
    if (w * n >= 4096) {
      EXPECT_GT(tail_draws, 0u);
    }
  }
}

TEST(RngBlock, NormalFillStridedLeavesGapsUntouched) {
  const std::size_t w = 8, n = 32, stride = 13;  // stride > width
  sp::Rng root(31337);
  std::vector<sp::Rng> lanes;
  for (std::size_t j = 0; j < w; ++j) lanes.push_back(root.fork(j));
  auto ref = lanes;

  sp::RngBlock rb;
  rb.pack(lanes.data(), w);
  std::vector<double> got(n * stride, -99.0);
  rb.normal_fill(1.0, got.data(), n, stride);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < w; ++j)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i * stride + j]),
                std::bit_cast<std::uint64_t>(ref[j].normal()));
    for (std::size_t j = w; j < stride; ++j)
      EXPECT_EQ(got[i * stride + j], -99.0);  // padding untouched
  }
}

TEST(Rng, NormalFillVariantsShareOneCore) {
  // normal_vector / normal_fill / normal_fill_scaled(1.0, ...) are one
  // strided core: identical draws from identical states.
  sp::Rng a(5), b(5), c(5);
  const std::size_t n = 512;
  const auto v = a.normal_vector(n);
  std::vector<double> f, s(n);
  b.normal_fill(f, n);
  c.normal_fill_scaled(1.0, s.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v[i]),
              std::bit_cast<std::uint64_t>(f[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f[i]),
              std::bit_cast<std::uint64_t>(s[i]));
  }
}

TEST(Clark, NWayMatchesPairwiseForTwo) {
  const std::vector<sp::Gaussian> v{{10.0, 2.0}, {11.0, 1.5}};
  const auto m2 = sp::clark_max_n(v);
  const auto cm = sp::clark_max(v[0], v[1], 0.0);
  EXPECT_NEAR(m2.mean, cm.max.mean, 1e-12);
  EXPECT_NEAR(m2.sigma, cm.max.sigma, 1e-12);
}

TEST(Clark, NWaySingleVariableIsIdentity) {
  const std::vector<sp::Gaussian> v{{7.0, 0.5}};
  const auto m = sp::clark_max_n(v);
  EXPECT_DOUBLE_EQ(m.mean, 7.0);
  EXPECT_DOUBLE_EQ(m.sigma, 0.5);
}

TEST(Clark, NWayPerfectCorrelationEqualStages) {
  // N identical, perfectly correlated stages: max == any one stage.
  const std::vector<sp::Gaussian> v(5, sp::Gaussian{40.0, 6.0});
  const auto m = sp::clark_max_n(v, sp::uniform_correlation(5, 1.0));
  EXPECT_NEAR(m.mean, 40.0, 1e-9);
  EXPECT_NEAR(m.sigma, 6.0, 1e-9);
}

TEST(Clark, NWayAgainstMonteCarlo_Independent) {
  const std::vector<sp::Gaussian> v{
      {40.0, 3.0}, {42.0, 2.0}, {39.0, 4.0}, {41.0, 2.5}, {40.5, 3.5}};
  const auto analytic = sp::clark_max_n(v);

  sp::Rng rng(42);
  sp::RunningStats rs;
  for (int i = 0; i < 200000; ++i) {
    double mx = -1e300;
    for (const auto& g : v) mx = std::max(mx, rng.normal(g.mean, g.sigma));
    rs.add(mx);
  }
  EXPECT_NEAR(analytic.mean, rs.mean(), 0.05);
  // Heterogeneous sigmas (2..4 ps) stress the Gaussian-max assumption; the
  // sigma error is larger than the paper's homogeneous configs (Fig. 3).
  EXPECT_NEAR(analytic.sigma, rs.stddev(), 0.08 * rs.stddev());
}

TEST(Clark, NWayAgainstMonteCarlo_HomogeneousSigma) {
  // The paper's configurations: equal stage sigmas.  Error < ~3% (Fig 3a).
  std::vector<sp::Gaussian> v;
  for (int i = 0; i < 8; ++i) v.push_back({40.0 + 0.5 * i, 3.0});
  const auto analytic = sp::clark_max_n(v);

  sp::Rng rng(99);
  sp::RunningStats rs;
  for (int i = 0; i < 300000; ++i) {
    double mx = -1e300;
    for (const auto& g : v) mx = std::max(mx, rng.normal(g.mean, g.sigma));
    rs.add(mx);
  }
  EXPECT_NEAR(analytic.mean, rs.mean(), 0.002 * rs.mean());
  // Clark underestimates sigma when many near-equal variables overlap; the
  // paper's own Table I shows the same bias (model 2.72 vs MC 3.27 for the
  // 5x8 config, -17%).  Bound the error rather than expect a perfect match.
  EXPECT_NEAR(analytic.sigma, rs.stddev(), 0.06 * rs.stddev());
}

TEST(Clark, NWayAgainstMonteCarlo_Correlated) {
  const std::vector<sp::Gaussian> v{
      {40.0, 3.0}, {42.0, 2.0}, {39.0, 4.0}, {41.0, 2.5}};
  const double rho = 0.5;
  const auto analytic = sp::clark_max_n(v, sp::uniform_correlation(4, rho));

  // Uniform rho is one-factor: X_i = mu_i + sigma_i (sqrt(rho) Z +
  // sqrt(1 - rho) e_i) with Z, e_i iid N(0,1).
  sp::Rng rng(7);
  sp::RunningStats rs;
  std::vector<double> z;
  for (int i = 0; i < 200000; ++i) {
    rng.normal_fill(z, v.size() + 1);
    double mx = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < v.size(); ++k) {
      const double x = std::sqrt(rho) * z[0] + std::sqrt(1.0 - rho) * z[k + 1];
      mx = std::max(mx, v[k].mean + v[k].sigma * x);
    }
    rs.add(mx);
  }
  EXPECT_NEAR(analytic.mean, rs.mean(), 0.05);
  // sigma error grows with correlation (paper Fig. 3b); allow 3%.
  EXPECT_NEAR(analytic.sigma, rs.stddev(), 0.03 * rs.stddev() + 0.02);
}

TEST(Clark, OrderingPolicyChangesResultOnlySlightly) {
  std::vector<sp::Gaussian> v;
  for (int i = 0; i < 12; ++i)
    v.push_back({40.0 + i * 0.7, 2.0 + 0.1 * (i % 4)});
  const auto inc = sp::clark_max_n(v, sp::ClarkOrdering::kIncreasingMean);
  const auto dec = sp::clark_max_n(v, sp::ClarkOrdering::kDecreasingMean);
  const auto doc = sp::clark_max_n(v, sp::ClarkOrdering::kAsGiven);
  EXPECT_NEAR(inc.mean, dec.mean, 0.1);
  EXPECT_NEAR(inc.mean, doc.mean, 0.1);
  EXPECT_NEAR(inc.sigma, doc.sigma, 0.1);
}

TEST(Clark, EmptyInputThrows) {
  EXPECT_THROW(sp::clark_max_n({}), std::invalid_argument);
}

// Property sweep: Clark mean must always dominate the Jensen bound and be
// below the sum-based upper bound, for a grid of (spread, rho).
class ClarkProperty : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ClarkProperty, JensenAndUpperBoundsHold) {
  const auto [spread, rho] = GetParam();
  std::vector<sp::Gaussian> v;
  for (int i = 0; i < 6; ++i) v.push_back({50.0 + spread * i, 3.0});
  const auto corr = sp::uniform_correlation(6, rho);
  const auto m = sp::clark_max_n(v, corr);
  double mu_max = 0.0, mu_sum = 0.0;
  for (const auto& g : v) {
    mu_max = std::max(mu_max, g.mean);
    mu_sum += g.mean + g.sigma;  // crude but valid upper bound on E[max]
  }
  EXPECT_GE(m.mean, mu_max - 1e-9);
  EXPECT_LE(m.mean, mu_sum);
  EXPECT_GE(m.sigma, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SpreadRhoGrid, ClarkProperty,
    ::testing::Combine(::testing::Values(0.0, 0.5, 2.0, 10.0),
                       ::testing::Values(0.0, 0.2, 0.5, 0.8, 0.99)));

// ---------------------------------------------------------------- matrices

TEST(Matrix, UniformCorrelationBounds) {
  EXPECT_THROW(sp::uniform_correlation(3, 1.2), std::invalid_argument);
  EXPECT_THROW(sp::uniform_correlation(3, -0.9), std::invalid_argument);
  EXPECT_NO_THROW(sp::uniform_correlation(3, -0.4));
}

TEST(Matrix, UniformCorrelationRejectsNaN) {
  EXPECT_THROW(sp::uniform_correlation(3, std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(sp::uniform_correlation(1, std::nan("")),
               std::invalid_argument);
}

TEST(Matrix, SpatialCorrelationDecays) {
  const auto m = sp::spatial_correlation({0.0, 0.5, 1.0}, 0.5);
  EXPECT_NEAR(m(0, 1), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(m(0, 2), std::exp(-2.0), 1e-12);
  EXPECT_GT(m(0, 1), m(0, 2));
}

// ------------------------------------------------------------- descriptive

TEST(Descriptive, RunningStatsMatchesBatch) {
  sp::Rng rng(5);
  std::vector<double> xs;
  sp::RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), sp::mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), sp::variance(xs), 1e-9);
}

TEST(Descriptive, RunningStatsMerge) {
  sp::Rng rng(6);
  sp::RunningStats all, a, b;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sp::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(sp::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(sp::quantile(xs, 0.5), 2.5);
}

TEST(Descriptive, EmpiricalCdfCountsInclusive) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(sp::empirical_cdf_at(xs, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(sp::empirical_cdf_at(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sp::empirical_cdf_at(xs, 9.0), 1.0);
}

TEST(Descriptive, ProportionStderr) {
  EXPECT_NEAR(sp::proportion_stderr(0.5, 10000), 0.005, 1e-12);
  EXPECT_THROW(sp::proportion_stderr(0.5, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- histogram

TEST(Histogram, BinsAndDensity) {
  sp::Histogram h(0.0, 10.0, 10);
  for (double x : {0.5, 1.5, 1.7, 9.5, 100.0 /*clamped*/}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(9), 2u);  // 9.5 and the clamped 100.0
  double integral = 0.0;
  for (std::size_t i = 0; i < h.bins(); ++i)
    integral += h.density(i) * h.bin_width();
  EXPECT_NEAR(integral, 1.0, 1e-12);
}

TEST(Histogram, FromSamplesCoversRange) {
  sp::Rng rng(9);
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.normal(50.0, 5.0));
  const auto h = sp::Histogram::from_samples(xs, 32);
  EXPECT_EQ(h.total(), xs.size());
  EXPECT_LT(h.lo(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_GT(h.hi(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Histogram, CsvHasHeaderAndRows) {
  sp::Histogram h(0.0, 1.0, 4);
  h.add(0.1);
  const auto csv = h.to_csv("unit");
  EXPECT_NE(csv.find("center,count,density"), std::string::npos);
  EXPECT_NE(csv.find("# histogram unit"), std::string::npos);
}

// -------------------------------------------------------- RunningStats IO

TEST(RunningStats, StateRoundTripIsIndistinguishable) {
  sp::Rng rng(404);
  sp::RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(rng.normal(50.0, 9.0));
  const auto back = sp::RunningStats::from_state(s.state());
  EXPECT_EQ(back.count(), s.count());
  EXPECT_EQ(back.mean(), s.mean());
  EXPECT_EQ(back.variance(), s.variance());
  EXPECT_EQ(back.min(), s.min());
  EXPECT_EQ(back.max(), s.max());
  // Continuing to accumulate after the round trip matches exactly too.
  sp::RunningStats cont = back;
  sp::RunningStats orig = s;
  cont.add(123.456);
  orig.add(123.456);
  EXPECT_EQ(cont.mean(), orig.mean());
  EXPECT_EQ(cont.variance(), orig.variance());
}

// State snapshots arrive off the distributed wire (dist/serialize), so
// from_state treats every field as adversarial: any bit pattern no
// add()/merge() sequence can produce must be rejected loudly, never
// folded into an accumulator where a single NaN poisons every later
// merge.
TEST(RunningStats, FromStateRejectsAdversarialFields) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  sp::RunningStats good;
  good.add(1.5);
  good.add(4.5);
  const auto s = good.state();

  // Non-finite contamination of every floating field, individually.
  for (const double bad : {nan, inf, -inf}) {
    auto t = s;
    t.mean = bad;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
    t = s;
    t.m2 = bad;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
    t = s;
    t.min = bad;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
    t = s;
    t.max = bad;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
  }
  // Welford's m2 is a sum of squares: it can never go negative.
  {
    auto t = s;
    t.m2 = -1.0;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
  }
  // An inverted extremum pair with samples present.
  {
    auto t = s;
    t.min = 10.0;
    t.max = 2.0;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
  }
  // Zero samples with nonzero moments is unreachable by construction.
  {
    sp::RunningStats::State t{};
    t.mean = 1.0;
    EXPECT_THROW((void)sp::RunningStats::from_state(t), std::invalid_argument);
  }
  // The valid snapshots still pass: the populated one and the empty one.
  EXPECT_NO_THROW((void)sp::RunningStats::from_state(s));
  EXPECT_NO_THROW((void)sp::RunningStats::from_state(sp::RunningStats::State{}));
}

TEST(Histogram, RejectsNonFiniteOrUnorderedBounds) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // +inf hi satisfies `hi > lo`, which is exactly why isfinite is checked
  // too: every bin width would be inf and binning degenerates.
  EXPECT_THROW(sp::Histogram(0.0, inf, 4), std::invalid_argument);
  EXPECT_THROW(sp::Histogram(-inf, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(sp::Histogram(nan, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(sp::Histogram(0.0, nan, 4), std::invalid_argument);
  EXPECT_THROW(sp::Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(sp::Histogram(2.0, 1.0, 4), std::invalid_argument);
}

// ------------------------------------------------------------------ lanes

TEST(Lanes, ValidatedWidthRejectsOutOfRange) {
  // The accepted range is the *active SIMD backend's* [1, max_width()];
  // kMaxWidth is only the absolute cap across backends.
  EXPECT_EQ(sp::lanes::validated_width(1), 1u);
  EXPECT_EQ(sp::lanes::validated_width(sp::lanes::kWidth), sp::lanes::kWidth);
  EXPECT_LE(sp::lanes::max_width(), sp::lanes::kMaxWidth);
  EXPECT_GE(sp::lanes::preferred_width(), 1u);
  EXPECT_LE(sp::lanes::preferred_width(), sp::lanes::max_width());
  EXPECT_EQ(sp::lanes::validated_width(sp::lanes::max_width()),
            sp::lanes::max_width());
  EXPECT_THROW(sp::lanes::validated_width(0), std::invalid_argument);
  EXPECT_THROW(sp::lanes::validated_width(sp::lanes::max_width() + 1),
               std::invalid_argument);
  EXPECT_THROW(sp::lanes::validated_width(sp::lanes::kMaxWidth + 1),
               std::invalid_argument);
}

TEST(Lanes, PowPosMatchesStdPowClosely) {
  // pow_pos is a distinct implementation from libm (that is the point:
  // both the scalar and lane paths share it), so agreement is to ~1e-13
  // relative over the variation-factor domain, not bitwise.
  sp::Rng rng(777);
  double worst = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(0.05, 20.0);
    const double y = rng.uniform(-4.0, 4.0);
    const double ours = sp::lanes::pow_pos(x, y);
    const double ref = std::pow(x, y);
    worst = std::max(worst, std::abs(ours - ref) / std::abs(ref));
  }
  EXPECT_LT(worst, 1e-13);
}

TEST(Lanes, PowPosExactAnchors) {
  EXPECT_EQ(sp::lanes::pow_pos(1.0, 1.3), 1.0);
  EXPECT_EQ(sp::lanes::pow_pos(1.0, -271.25), 1.0);
  EXPECT_EQ(sp::lanes::pow_pos(17.25, 0.0), 1.0);
  // Exact powers of two with integer exponents come out exact.
  EXPECT_EQ(sp::lanes::pow_pos(2.0, 10.0), 1024.0);
  EXPECT_EQ(sp::lanes::pow_pos(4.0, -1.0), 0.25);
}

TEST(Lanes, PowPosRowMatchesPowPosLaneByLaneBitwise) {
  // Both row forms give every lane the one-lane bits (step-major at every
  // compiled row width, lane-major at every run-time width up to
  // kMaxWidth) over the domain's edges: x = 1, x near 2^-256 and 2^256
  // (variation_factor's drive-ratio window), and x on both sides of the
  // m = sqrt(2) recentering boundary at several exponents, plus random x.
  constexpr double kSqrt2 = 1.4142135623730951;
  std::vector<double> xs{1.0};
  for (double edge : {0x1p-256, 0x1p256, kSqrt2, std::ldexp(kSqrt2, -200),
                      std::ldexp(kSqrt2, -1), std::ldexp(kSqrt2, 7),
                      std::ldexp(kSqrt2, 200)}) {
    double lo = edge, hi = edge;
    xs.push_back(edge);
    for (int k = 0; k < 4; ++k) {
      xs.push_back(lo = std::nextafter(lo, 0.0));
      xs.push_back(hi = std::nextafter(hi, INFINITY));
    }
  }
  sp::Rng rng(2718);
  for (int i = 0; i < 150; ++i) xs.push_back(std::exp2(rng.uniform(-8, 8)));

  constexpr std::size_t kMax = sp::lanes::kMaxWidth;
  for (double y : {1.3, 3.9, 0.5, -2.5}) {
    std::vector<double> ref(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      ref[i] = sp::lanes::pow_pos(xs[i], y);
    // Runs xs through `row` in chunks of w lanes (the last one padded
    // with 1.0) and compares each lane with pow_pos.
    const auto check = [&](std::size_t w, auto row) {
      for (std::size_t c = 0; c < xs.size(); c += w) {
        double x[kMax], out[kMax];
        for (std::size_t j = 0; j < w; ++j)
          x[j] = c + j < xs.size() ? xs[c + j] : 1.0;
        row(x, out);
        for (std::size_t j = 0; j < w && c + j < xs.size(); ++j)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(out[j]),
                    std::bit_cast<std::uint64_t>(ref[c + j]))
              << "w=" << w << " x=" << x[j] << " y=" << y;
      }
    };
    check(1, [&](const double* x, double* o) {
      sp::lanes::pow_pos_row<1>(x, y, o, 1);
    });
    check(8, [&](const double* x, double* o) {
      sp::lanes::pow_pos_row<8>(x, y, o, 8);
    });
    check(16, [&](const double* x, double* o) {
      sp::lanes::pow_pos_row<16>(x, y, o, 16);
    });
    check(32, [&](const double* x, double* o) {
      sp::lanes::pow_pos_row<32>(x, y, o, 32);
    });
    check(64, [&](const double* x, double* o) {
      sp::lanes::pow_pos_row<64>(x, y, o, 64);
    });
    for (std::size_t n = 1; n <= kMax; ++n)
      check(n, [&](const double* x, double* o) {
        sp::lanes::pow_pos_row<0>(x, y, o, n);
      });
  }
}

// ---------------------------------------------------------------- KS

TEST(Ks, GaussianSampleHasSmallDistance) {
  sp::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(100.0, 7.0));
  EXPECT_LT(sp::ks_distance(xs, sp::Gaussian{100.0, 7.0}), 0.015);
  // Against the wrong Gaussian the distance is large.
  EXPECT_GT(sp::ks_distance(xs, sp::Gaussian{110.0, 7.0}), 0.3);
}

TEST(Ks, TwoSampleSelfDistanceSmall) {
  sp::Rng rng(13);
  std::vector<double> a, b;
  for (int i = 0; i < 10000; ++i) {
    a.push_back(rng.normal());
    b.push_back(rng.normal());
  }
  EXPECT_LT(sp::ks_distance(a, b), 0.03);
}
