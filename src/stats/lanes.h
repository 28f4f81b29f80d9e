// Lane abstraction for the block-vectorized kernel layer.
//
// A "lane block" is a fixed-width structure-of-arrays slice of doubles:
// every logical value (a die's Vth shift, a gate's arrival time, a
// canonical-max operand) is stored as `width` consecutive doubles, one per
// lane, so the hot kernels (block sample STA, the branch-free canonical
// max under the lane SSTA fold) iterate contiguous memory the compiler can
// auto-vectorize.  Widths are small powers of two; how wide a block a
// kernel accepts is a property of the active SIMD backend (stats/simd.h):
// each backend publishes its own maximum (16 for the 2-double SSE4.2/NEON
// backends up to the absolute cap of 64 for AVX-512), queried at runtime
// via max_width() / preferred_width() below.
//
// Determinism contract shared by every lane kernel in the repository
// (per SIMD backend — see stats/simd.h and docs/DETERMINISM.md):
// lane k executes exactly the scalar path's floating-point sequence, so a
// width-W kernel is bitwise-identical to W independent scalar calls.
// Data-dependent branches inside a kernel are expressed with lane_select
// (value blending) instead of control flow, keeping all lanes on one
// instruction stream ("branch-free") without changing any lane's result.
//
// Layer contract (src/stats, see docs/ARCHITECTURE.md): foundation layer —
// standard library only.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace statpipe::stats {

namespace lanes {

/// Portable default SoA block width for die-block sampling / block sample
/// STA — valid on every backend.  Backends that profit from wider blocks
/// advertise it via preferred_width().
inline constexpr std::size_t kWidth = 8;

/// Absolute upper bound on block width across all SIMD backends
/// (workspace sizing; eight 512-bit registers per lane row).  The width a
/// given run actually accepts is the *active backend's* maximum,
/// max_width() <= kMaxWidth.
inline constexpr std::size_t kMaxWidth = 64;

/// Widest block the active SIMD backend accepts (e.g. 16 under sse42/neon,
/// 32 under avx2, 64 under scalar/avx512).  Resolves the backend on first
/// use; see stats/simd.h for selection and the STATPIPE_SIMD override.
std::size_t max_width();

/// Block width the active SIMD backend prefers — the width benches and
/// CLIs should default to when the user did not pin one.  Never affects
/// results (the determinism contract makes results width-invariant); only
/// throughput.
std::size_t preferred_width();

/// Validates a requested block width: returns w when 1 <= w <= max_width()
/// of the active SIMD backend, throws std::invalid_argument (naming the
/// backend and its maximum) otherwise.  A width of 0, or beyond what the
/// active backend accepts, is a caller bug — it fails loudly up front
/// instead of being silently clamped into range (which would quietly
/// change the run's RNG-stream grouping a user thought they had asked
/// for).
std::size_t validated_width(std::size_t w);

/// Branch-free value select: take `a` when `cond`, else `b`.  A mask blend
/// on the bit patterns, not a ternary: gcc may turn a ternary into a real
/// branch, which blocks if-conversion and with it vectorization of the
/// lane loop around it.  The result is exactly a's or b's bits, NaN and
/// -0 included, so it is bitwise the ternary.  Both operands are always
/// evaluated (kernels pre-sanitize divisors before dividing).
/// always_inline: this helper and the cores below are compiled into every
/// per-ISA backend TU (stats/lanes_kernels.inl); if gcc ever emitted them
/// out-of-line, the linker would deduplicate the comdat copies and could
/// hand every backend one ISA's code — inlining removes the symbol
/// entirely.
__attribute__((always_inline)) inline double select(bool cond, double a,
                                                    double b) noexcept {
  const std::uint64_t mask = 0ULL - static_cast<std::uint64_t>(cond);
  return std::bit_cast<double>((std::bit_cast<std::uint64_t>(a) & mask) |
                               (std::bit_cast<std::uint64_t>(b) & ~mask));
}

/// One Horner step across a row: acc[j] = acc[j] * v[j] + c for j < n.
__attribute__((always_inline)) inline void horner_step(
    double* __restrict acc, const double* __restrict v, double c,
    std::size_t n) noexcept {
#pragma GCC unroll 4
  for (std::size_t j = 0; j < n; ++j) acc[j] = acc[j] * v[j] + c;
}

/// Branch-free polynomial pow for positive normal finite x over a row of
/// lanes: out[j] = x[j]^y for j < n.  The one exponentiation core of
/// AlphaPowerModel::variation_factor (through pow_pos below) and of the
/// block sample-STA walk.  Evaluated as exp2(y * log2(x)) with a bit-level
/// exponent split, an atanh-series log2 on [sqrt(1/2), sqrt(2)) and a
/// degree-12 Taylor exp: straight-line arithmetic a compiler can vectorize
/// across lanes, unlike the libm call.
///
/// Step-major: each step below (the split, t, every Horner step of both
/// series, the exp2 split, the scale) runs across the whole row before the
/// next one starts, so a wide row is W/lanes-per-register independent
/// operations per step instead of one long dependency chain per register.
/// Lane j still executes exactly the one-lane floating-point sequence;
/// only the order ACROSS lanes changes, which no lane's result can see.
/// So every row width and every backend give each lane the same bits as
/// the scalar pow_pos, by construction.
///
/// kW > 0 fixes the row at kW lanes at compile time (n is ignored); gcc
/// then keeps each step as a few full-width register operations.  kW == 0
/// takes n at run time and runs lane-major instead: each lane runs the
/// one-lane row, so it too gives every lane the scalar bits.  Every
/// step-major lane loop here and in the walk carries `#pragma GCC unroll
/// 4`: at -O3 gcc otherwise unrolls loops of up to 16 iterations
/// completely before its loop vectorizer runs, and its basic-block
/// vectorizer cannot pack the mask selects again, so 8- and 16-lane rows
/// came out scalar.  With the pragma the loop vectorizer takes the row,
/// and a vector loop of up to 4 registers (32 lanes on AVX-512) is still
/// unrolled after it.
///
/// It is a distinct function from std::pow (results differ from libm in
/// the last couple of ulps; relative error < ~1e-13 over the
/// variation-factor domain), which is why the scalar and lane paths must
/// both use it.  Exactness anchors: x^y == 1.0 at x == 1.0 or y == 0.0.
/// Preconditions (the caller's to reject — variation_factor's domain
/// checks do): every x positive, normal, finite; |y * log2(x)| <= 1020 so
/// the bit-built 2^k scale stays inside the normal exponent range.  There
/// is deliberately no internal clamp: a clamp's constant arm makes the
/// rest of the computation compile-time-constant, and gcc then specializes
/// it into a real branch — killing vectorization of every lane loop over
/// this function.
/// always_inline for the same ODR reason as select above: every SIMD
/// backend TU compiles this body under its own -m flags, and no
/// deduplicatable out-of-line copy may exist.
template <std::size_t kW>
__attribute__((always_inline)) inline void pow_pos_row(
    const double* __restrict x, double y, double* __restrict out,
    std::size_t n) noexcept {
  if constexpr (kW == 0) {
    // Run-time width: lane-major, each lane running the one-lane row in
    // turn, which gcc vectorizes as one whole pow per register of lanes.
    // Step-major over a run-time n makes every step a vector loop plus a
    // scalar remainder, and measured slower than this on the narrow tail
    // blocks that take this path.
    for (std::size_t j = 0; j < n; ++j) pow_pos_row<1>(x + j, y, out + j, 1);
  } else {
    constexpr std::size_t kRow = kW;
    n = kW;
    // Split x = 2^e * m, then re-center m into [sqrt(1/2), sqrt(2)) so the
    // atanh argument t stays within +-0.1716.  The exponent is read as a
    // double by splicing the 11 exponent bits into the mantissa of 2^52 and
    // subtracting (2^52 + 1023) — exact, and free of int64<->double
    // converts: those need AVX-512DQ to vectorize, and keeping the bit
    // splices in pure integer/double ops lets every backend down to the
    // SSE2 baseline vectorize this body.
    constexpr double kSqrt2 = 1.4142135623730951;
    double e[kRow], m[kRow];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      const double eb = std::bit_cast<double>(((bits >> 52) & 0x7ffULL) |
                                              0x4330000000000000ULL);
      const double mj = std::bit_cast<double>(
          (bits & 0x000fffffffffffffULL) | 0x3ff0000000000000ULL);
      // Re-centering select as a mask blend (not a ternary): gcc turns the
      // ternary into a real branch here, which blocks if-conversion and with
      // it vectorization of the lane loop.
      const std::uint64_t rmask =
          0ULL - static_cast<std::uint64_t>(mj >= kSqrt2);
      m[j] = std::bit_cast<double>(
          (std::bit_cast<std::uint64_t>(0.5 * mj) & rmask) |
          (std::bit_cast<std::uint64_t>(mj) & ~rmask));
      e[j] = (eb - 4503599627371519.0) +  // 2^52 + 1023
             std::bit_cast<double>(std::bit_cast<std::uint64_t>(1.0) & rmask);
    }

    // log2(m) = (2/ln2) * atanh(t), t = (m-1)/(m+1); odd series through t^17
    // truncates below 1e-16 on this range.
    double t[kRow], t2[kRow];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) {
      t[j] = (m[j] - 1.0) / (m[j] + 1.0);
      t2[j] = t[j] * t[j];
    }
    double p[kRow];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) p[j] = 1.0 / 17.0;
    horner_step(p, t2, 1.0 / 15.0, n);
    horner_step(p, t2, 1.0 / 13.0, n);
    horner_step(p, t2, 1.0 / 11.0, n);
    horner_step(p, t2, 1.0 / 9.0, n);
    horner_step(p, t2, 1.0 / 7.0, n);
    horner_step(p, t2, 1.0 / 5.0, n);
    horner_step(p, t2, 1.0 / 3.0, n);
    // log2x, then exp2(z): z = k + f with integer k (round-to-nearest via
    // the 1.5*2^52 trick) and f in [-0.5, 0.5]; e^(f ln2) by degree-12
    // Taylor (truncation < 2e-16), scaled by bit-built 2^k.
    constexpr double kTwoOverLn2 = 2.8853900817779268;  // 2 / ln 2
    constexpr double kLn2 = 0.6931471805599453;
    double zr[kRow], u[kRow];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) {
      const double atanh_t = t[j] + t[j] * t2[j] * p[j];
      const double log2x = e[j] + kTwoOverLn2 * atanh_t;
      const double z = y * log2x;  // |z| <= 1020 by precondition
      zr[j] = z + 0x1.8p52;        // k lives in zr's low mantissa bits
      const double kd = zr[j] - 0x1.8p52;
      u[j] = (z - kd) * kLn2;
    }
    double q[kRow];
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) q[j] = 1.0 / 479001600.0;  // 1/12!
    horner_step(q, u, 1.0 / 39916800.0, n);
    horner_step(q, u, 1.0 / 3628800.0, n);
    horner_step(q, u, 1.0 / 362880.0, n);
    horner_step(q, u, 1.0 / 40320.0, n);
    horner_step(q, u, 1.0 / 5040.0, n);
    horner_step(q, u, 1.0 / 720.0, n);
    horner_step(q, u, 1.0 / 120.0, n);
    horner_step(q, u, 1.0 / 24.0, n);
    horner_step(q, u, 1.0 / 6.0, n);
    horner_step(q, u, 0.5, n);
    // 2^k from zr's bit pattern: zr = 2^52 + 2^51 + k exactly, so zr's low 12
    // mantissa bits are k mod 2^12 (two's complement); adding the 1023 bias
    // and shifting into the exponent field builds 2^k with no int converts.
#pragma GCC unroll 4
    for (std::size_t j = 0; j < n; ++j) {
      const double expu = 1.0 + u[j] * (1.0 + u[j] * q[j]);
      const double scale = std::bit_cast<double>(
          (std::bit_cast<std::uint64_t>(zr[j]) + 1023ULL) << 52);
      out[j] = expu * scale;
    }
  }
}

/// x^y for one lane: pow_pos_row's one-lane row, so the scalar path runs
/// the very body every lane of the walk runs.
__attribute__((always_inline)) inline double pow_pos(double x,
                                                     double y) noexcept {
  double out;
  pow_pos_row<1>(&x, y, &out, 1);
  return out;
}

// BEGIN generated by tools/gen_normal_core.py: do not edit by hand.
// mpmath 1.3.0 Chebyshev fits; see the script for how they are made.

/// t = kNormalCoreK / (kNormalCoreK + |x|) is normal_core's tail variable.
inline constexpr double kNormalCoreK = 5.0;

/// P(t) ~ Phi(-x) e^(x^2/2) / t, 22 terms in Estrin's scheme, with
/// P(1) == 0.5 exactly in this evaluation order.
__attribute__((always_inline)) inline double normal_tail_poly(
    double t) noexcept {
  const double p1_0 = 0x1.46d042981292ep-4 + 0x1.46d0426bd990cp-4 * t;
  const double p1_1 = 0x1.39bdb5c12cf69p-4 + 0x1.1f982b1417e88p-4 * t;
  const double p1_2 = 0x1.f3eebf17d4d10p-5 + 0x1.977e53cefe835p-5 * t;
  const double p1_3 = 0x1.369732c1c9a21p-5 + 0x1.84ef15109db17p-6 * t;
  const double p1_4 = 0x1.85c4ed7af8f9cp-6 - 0x1.9bfca12437086p-6 * t;
  const double p1_5 = 0x1.9006df0b8bb4ep-4 - 0x1.e4ae7ccead149p-3 * t;
  const double p1_6 = 0x1.debe514362e9cp-2 - 0x1.8601ff0308916p-1 * t;
  const double p1_7 = 0x1.fbb98fb5e2167p-1 - 0x1.06fe1daf60fe4p+0 * t;
  const double p1_8 = 0x1.a80b6680e14c9p-1 - 0x1.00862933791bep-1 * t;
  const double p1_9 = 0x1.be1b18fe41ea4p-3 - 0x1.0686459355743p-4 * t;
  const double p1_10 = 0x1.76bdeb4e9401dp-7 - 0x1.eae53109a1ccap-11 * t;
  const double t2 = t * t;
  const double p2_0 = p1_0 + p1_1 * t2;
  const double p2_1 = p1_2 + p1_3 * t2;
  const double p2_2 = p1_4 + p1_5 * t2;
  const double p2_3 = p1_6 + p1_7 * t2;
  const double p2_4 = p1_8 + p1_9 * t2;
  const double t4 = t2 * t2;
  const double p3_0 = p2_0 + p2_1 * t4;
  const double p3_1 = p2_2 + p2_3 * t4;
  const double p3_2 = p2_4 + p1_10 * t4;
  const double t8 = t4 * t4;
  const double p4_0 = p3_0 + p3_1 * t8;
  const double t16 = t8 * t8;
  return p4_0 + p3_2 * t16;
}

/// Q(r) ~ (e^r - 1 - r) / r^2 on |r| <= ln2/2, 10 terms, Estrin.
__attribute__((always_inline)) inline double exp_poly(double r) noexcept {
  const double q1_0 = 0x1.0000000000001p-1 + 0x1.5555555555556p-3 * r;
  const double q1_1 = 0x1.5555555553d68p-5 + 0x1.11111111109b5p-7 * r;
  const double q1_2 = 0x1.6c16c17889fd3p-10 + 0x1.a01a01a7c2f89p-13 * r;
  const double q1_3 = 0x1.a019b91463588p-16 + 0x1.71de0db2d4e97p-19 * r;
  const double q1_4 = 0x1.28917ccaf39d3p-22 + 0x1.af389f20208c6p-26 * r;
  const double r2 = r * r;
  const double q2_0 = q1_0 + q1_1 * r2;
  const double q2_1 = q1_2 + q1_3 * r2;
  const double r4 = r2 * r2;
  const double q3_0 = q2_0 + q2_1 * r4;
  const double r8 = r4 * r4;
  return q3_0 + q1_4 * r8;
}
// END generated by tools/gen_normal_core.py.

/// Branch-free exp for the Gaussian core: exp(y + y_lo), where y_lo is a
/// correction far below ulp(y) (normal_core passes the rounding error of
/// x*x there).  Cody–Waite reduction y = k ln2 + r with a 32-bit ln2_hi
/// (k * ln2_hi is exact), r in [-ln2/2, ln2/2], exp(r) = 1 + r + r^2 Q(r)
/// (exp_poly, generated), and a bit-built 2^k as in pow_pos: no int<->float
/// converts.  2^k is applied as 2^(k+128) * 2^-128, so results below
/// DBL_MIN underflow gradually with one rounding.  Relative error below
/// 2e-16 wherever the result is normal.
/// Anchors: exp_core(0, 0) == 1 exactly; every y below -745.14 (-inf
/// included) returns +0; NaN returns NaN.  Precondition: y <= 600 (the
/// Gaussian core only passes y <= 0).  The floor is applied with select,
/// a mask blend, so the body stays straight-line code.
__attribute__((always_inline)) inline double exp_core(double y,
                                                      double y_lo) noexcept {
  constexpr double kFloor = -768.0;  // exp(-768) * 2^128 is still normal
  constexpr double kInvLn2 = 0x1.71547652b82fep+0;
  constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
  y = select(y < kFloor, kFloor, y);
  const double kr = y * kInvLn2 + 0x1.8p52;  // k in kr's low mantissa bits
  const double kd = kr - 0x1.8p52;
  const double r = ((y - kd * kLn2Hi) - kd * kLn2Lo) + y_lo;
  const double expu = 1.0 + r * (1.0 + r * exp_poly(r));
  // kr's low 12 mantissa bits are k mod 2^12; k + 128 + 1023 lies in
  // [1, 2046] for y in [-768, 600], so the shift builds 2^(k+128).
  const double scale = std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(kr) + (1023ULL + 128ULL)) << 52);
  return (expu * scale) * 0x1p-128;
}

/// normal_core's three outputs for one x.
struct NormalCore {
  double cdf;  ///< Phi(x)
  double sf;   ///< Phi(-x) = 1 - Phi(x), tail-accurate
  double pdf;  ///< phi(x)
};

/// The one Gaussian core under stats::normal_cdf / normal_sf / normal_pdf
/// and Clark's max (scalar clark_max and every backend's
/// canonical_max_lanes):
/// Phi(x), Phi(-x) and phi(x) from one exp and one polynomial.
///
///   E = exp(-x^2/2), x^2 split exactly into hi + lo (Dekker, no FMA)
///   Phi(-|x|) = E * t * P(t),  t = K / (K + |x|)  (normal_tail_poly)
///   Phi(|x|)  = 1 - Phi(-|x|),  phi(x) = E / sqrt(2 pi)
///
/// and a sign select.  Straight-line arithmetic with mask-blend selects, so
/// a lane loop over it vectorizes; the scalar path and every backend run
/// this one function, which is what makes them bitwise equal.
/// Accuracy against mpmath (tools/gen_normal_core.py, tests/test_stats.cpp):
/// relative error of min(Phi(x), Phi(-x)) and of phi(x) below 1e-15
/// wherever they are normal doubles (|x| < ~37.5); in the subnormal tail
/// beyond, the absolute error stays within 2^-1073.
/// Anchors: Phi(0) == 0.5 (P(1) == 0.5 exactly as evaluated); Phi(+inf)
/// == 1, Phi(-inf) == 0, phi(+-inf) == 0; NaN gives NaN in all three.
/// |x| is clamped at 39, where every output has long underflowed or
/// saturated, which keeps the exact square free of overflow.
__attribute__((always_inline)) inline NormalCore normal_core(
    double x) noexcept {
  constexpr double kInvSqrt2Pi = 0x1.9884533d43651p-2;
  double ax = std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) &
                                    0x7fffffffffffffffULL);
  ax = select(ax > 39.0, 39.0, ax);  // NaN stays NaN
  // ax*ax = sq + err exactly: Veltkamp split, then Dekker's error term.
  const double c = 134217729.0 * ax;  // 2^27 + 1
  const double hi = c - (c - ax);
  const double lo = ax - hi;
  const double sq = ax * ax;
  const double err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo;
  const double e = exp_core(-0.5 * sq, -0.5 * err);
  const double t = kNormalCoreK / (kNormalCoreK + ax);
  const double s = e * (t * normal_tail_poly(t));  // Phi(-|x|)
  const double b = 1.0 - s;                        // Phi(|x|)
  const bool neg = x < 0.0;
  return {select(neg, s, b), select(neg, b, s), kInvSqrt2Pi * e};
}

}  // namespace lanes
}  // namespace statpipe::stats
