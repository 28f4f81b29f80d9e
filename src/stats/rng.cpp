#include "stats/rng.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "stats/simd.h"

namespace statpipe::stats {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix, the standard recipe for
// deriving independent seeds from a counter.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// One xoshiro256** step on a raw 4-word state — the exact recurrence of
// Xoshiro256::operator(), for the slow path that advances a state the
// caller handed over by pointer.
std::uint64_t raw_next(std::uint64_t s[4]) noexcept {
  const auto rotl = [](std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  };
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// The [0,1) / (0,1] conversions of Rng::unit / Rng::unit_pos on a raw
// draw — duplicated formulas would be a resequencing bug waiting to happen,
// so both normal paths share these.
double raw_unit(std::uint64_t w) noexcept {
  return static_cast<double>(w >> 11) * 0x1.0p-53;
}
double raw_unit_pos(std::uint64_t w) noexcept {
  return static_cast<double>((w >> 11) + 1) * 0x1.0p-53;
}

}  // namespace

namespace ziggurat {

namespace {

// The density is covered by 255 equal-area horizontal strips plus a base
// strip of the same area v whose overhang past x = r is the exact Gaussian
// tail.  Standard constants for N = 256 layers (kR/kV in rng.h).
Tables build_tables() {
  Tables t;
  const double f_r = std::exp(-0.5 * kR * kR);
  t.x[0] = kV / f_r;
  t.x[1] = kR;
  t.y[0] = 0.0;  // base strip's lower bound (never used in a wedge test)
  t.y[1] = f_r;
  for (int i = 1; i < kLayers; ++i) {
    // Equal-area recurrence: f(x[i+1]) = v/x[i] + f(x[i]).
    const double fy = kV / t.x[i] + std::exp(-0.5 * t.x[i] * t.x[i]);
    if (fy >= 1.0) {
      t.x[i + 1] = 0.0;
      t.y[i + 1] = 1.0;
    } else {
      t.x[i + 1] = std::sqrt(-2.0 * std::log(fy));
      t.y[i + 1] = fy;
    }
  }
  t.x[kLayers] = 0.0;
  t.y[kLayers] = 1.0;
  return t;
}

}  // namespace

const Tables& tables() noexcept {
  static const Tables t = build_tables();
  return t;
}

double normal_slow(std::uint64_t bits, std::uint64_t s[4]) noexcept {
  const Tables& t = tables();
  for (;;) {
    const int i = static_cast<int>(bits & 0xFF);  // layer
    const bool neg = (bits >> 8) & 1;             // sign
    // Magnitude: 55 uniform bits scaled into [0, x[i]).
    const double u = static_cast<double>(bits >> 9) * 0x1.0p-55;
    const double mag = u * t.x[i];
    if (mag < t.x[i + 1]) return neg ? -mag : mag;  // fully inside the layer
    if (i == 0) {
      // Base-strip overhang: the exact Gaussian tail beyond r (Marsaglia's
      // exponential-rejection tail sampler).
      for (;;) {
        const double xx = -std::log(raw_unit_pos(raw_next(s))) / kR;
        const double yy = -std::log(raw_unit_pos(raw_next(s)));
        if (yy + yy > xx * xx) return neg ? -(kR + xx) : kR + xx;
      }
    }
    // Wedge: uniform height within the strip vs the true density.
    const double yv = t.y[i] + raw_unit(raw_next(s)) * (t.y[i + 1] - t.y[i]);
    if (yv < std::exp(-0.5 * mag * mag)) return neg ? -mag : mag;
    bits = raw_next(s);
  }
}

}  // namespace ziggurat

void Xoshiro256::reseed(std::uint64_t seed) noexcept {
  // Four independent splitmix64 steps, the seeding Blackman/Vigna recommend;
  // the all-zero state (invalid for xoshiro) cannot survive the guard.
  std::uint64_t sm = seed;
  auto next_sm = [&sm] {
    sm += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = sm;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  s_[0] = next_sm();
  s_[1] = next_sm();
  s_[2] = next_sm();
  s_[3] = next_sm();
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

double Rng::normal() {
  // Rectangle fast path inline (~98.8% of draws); everything rarer — wedge,
  // tail, re-draws — lives in ziggurat::normal_slow, the one implementation
  // the lane-batched kernels also fall back to.  The first engine draw and
  // the rectangle test here are exactly normal_slow's first iteration, so
  // handing the failed draw over changes nothing in the sequence.
  const ziggurat::Tables& t = ziggurat::tables();
  const std::uint64_t bits = gen_();
  const std::size_t i = static_cast<std::size_t>(bits & 0xFF);
  const double u = static_cast<double>(bits >> 9) * 0x1.0p-55;
  const double mag = u * t.x[i];
  if (mag < t.x[i + 1]) return (bits >> 8) & 1 ? -mag : mag;
  return ziggurat::normal_slow(bits, gen_.state());
}

Rng Rng::fork(std::uint64_t stream_id) const {
  // Mix seed and counter through independent avalanche rounds so adjacent
  // stream ids land in unrelated regions of the seed space.
  return Rng(splitmix64(splitmix64(seed_) ^
                        splitmix64(stream_id ^ 0x51ed2701a49c8e5fULL)));
}

std::vector<double> Rng::normal_vector(std::size_t n) {
  std::vector<double> v(n);
  normal_fill_scaled(1.0, v.data(), n);
  return v;
}

void Rng::normal_fill(std::vector<double>& out, std::size_t n) {
  out.resize(n);
  normal_fill_scaled(1.0, out.data(), n);
}

void Rng::normal_fill_scaled(double sigma, double* out, std::size_t n,
                             std::size_t stride) {
  for (std::size_t i = 0; i < n; ++i) out[i * stride] = sigma * normal();
}

void RngBlock::pack(const Rng* lane_rngs, std::size_t width) {
  if (width == 0 || width > lanes::kMaxWidth)
    throw std::invalid_argument(
        "RngBlock::pack: width " + std::to_string(width) +
        " outside [1, " + std::to_string(lanes::kMaxWidth) + "]");
  width_ = width;
  for (std::size_t j = 0; j < width; ++j) {
    const std::uint64_t* s = lane_rngs[j].engine().state();
    for (std::size_t k = 0; k < 4; ++k) s_[k][j] = s[k];
  }
}

void RngBlock::unpack(Rng* lane_rngs) const {
  require_packed("unpack");
  for (std::size_t j = 0; j < width_; ++j) {
    std::uint64_t* s = lane_rngs[j].engine().state();
    for (std::size_t k = 0; k < 4; ++k) s[k] = s_[k][j];
  }
}

void RngBlock::normal_fill(double sigma, double* out, std::size_t n,
                           std::size_t stride) {
  require_packed("normal_fill");
  simd::kernels().normal_fill_lanes(s_[0], s_[1], s_[2], s_[3], width_, sigma,
                                    n, stride, out);
}

void RngBlock::require_packed(const char* fn) const {
  if (width_ == 0)
    throw std::logic_error(std::string("RngBlock::") + fn +
                           ": no lanes packed");
}

}  // namespace statpipe::stats
