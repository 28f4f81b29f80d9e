// Seeded random number generation for Monte-Carlo experiments.
//
// Every sampler in the repository takes an explicit Rng so all experiments
// are deterministic and reproducible from a printed seed.  For sharded
// parallel runs, fork(stream_id) splits a root Rng into disjoint child
// streams keyed only on (seed, stream_id) — independent of how many draws
// have already been made — so shard results never depend on thread count.
//
// The core engine is xoshiro256** (Blackman & Vigna, public domain) seeded
// through splitmix64: O(1) construction makes the per-sample fork of the
// block Monte-Carlo path essentially free (a mt19937 would pay a 312-word
// re-seed per die), and normal draws use a 256-layer ziggurat rejection
// sampler (~1 engine draw per deviate) instead of the much slower
// std::normal_distribution — the gate-level engines spend a per-site RDF
// draw per die, so deviate cost is hot-path cost.
//
// For the block Monte-Carlo path, RngBlock holds W lane streams in SoA
// form and batches their draws through the active SIMD backend
// (stats/simd.h's normal_fill_lanes): lane j still
// consumes exactly its own stream's u64 sequence, so batching reorders
// draws only across lanes — unobservable per stream — and every lane stays
// bitwise-identical to the same draws issued one by one on that lane's Rng.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "stats/lanes.h"

namespace statpipe::stats {

/// xoshiro256** uniform random bit generator: 256-bit state, 64-bit output,
/// O(1) seeding.  Satisfies std::uniform_random_bit_generator so the
/// std::*_distribution adapters keep working on top of it.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  explicit Xoshiro256(std::uint64_t seed = 0) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Raw 4-word state, for SoA pack/unpack (RngBlock) and the external
  /// ziggurat slow path.  Mutating it repositions the stream: only code
  /// that replays the exact engine recurrence (ziggurat::normal_slow, the
  /// lane-batched draw kernels) may write here.
  std::uint64_t* state() noexcept { return s_; }
  const std::uint64_t* state() const noexcept { return s_; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// The 256-layer ziggurat for the standard normal (Marsaglia & Tsang, "The
/// Ziggurat Method for Generating Random Variables", JSS 2000), split so
/// the scalar Rng::normal() and the lane-batched normal_fill_lanes kernels
/// share one table set and ONE implementation of the rare slow path — the
/// rejection tail/wedge logic both paths must execute identically for the
/// per-lane bitwise contract to hold.
namespace ziggurat {

inline constexpr int kLayers = 256;
inline constexpr double kR = 3.6541528853610088;  ///< tail cut
inline constexpr double kV = 4.92867323399e-3;    ///< area per strip

/// x[i] is the right edge of layer i (x[1] = r, descending to x[256] = 0);
/// x[0] = v/f(r) is the virtual base edge that makes layer 0's rectangle
/// area equal v too.  y[i] = f(x[i]) are the strip boundaries for the
/// wedge test.
struct Tables {
  double x[kLayers + 1];
  double y[kLayers + 1];
};

/// The process-wide tables, built once on first use.  Extern (one
/// default-target definition in rng.cpp) so every per-ISA kernel TU reads
/// the same construction — the lanes_kernels.inl rules forbid file-scope
/// state in the backend TUs.
const Tables& tables() noexcept;

/// Slow path of one ziggurat draw: `bits` is the engine draw whose
/// rectangle test failed (re-tested here — it fails again deterministically
/// — so the function replays Rng::normal()'s loop verbatim from that
/// draw), `s` the raw xoshiro256** state positioned just after `bits` was
/// produced, advanced in place by however many extra draws the tail /
/// wedge rejection consumes.  Returns exactly what Rng::normal() returns
/// from the same state — the shared fallback of the scalar fast path and
/// every backend's normal_fill_lanes.
double normal_slow(std::uint64_t bits, std::uint64_t s[4]) noexcept;

}  // namespace ziggurat

/// Seeded generator with the convenience draws the samplers use.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL)
      : seed_(seed), gen_(seed) {}

  /// Standard normal draw (256-layer ziggurat).
  double normal();

  /// N(mean, sigma^2) draw.
  double normal(double mean, double sigma) { return mean + sigma * normal(); }

  /// Uniform in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return lo + (hi - lo) * unit();
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
  }

  /// Vector of n iid standard normals.
  std::vector<double> normal_vector(std::size_t n);

  /// Fills `out` (resized to n) with iid standard normals — the
  /// allocation-free form for per-shard workspaces.
  void normal_fill(std::vector<double>& out, std::size_t n);

  /// Writes n iid N(0, sigma^2) draws to out[0], out[stride], ... — one
  /// batched call for strided SoA targets (a DieBlock lane) and contiguous
  /// arrays alike.  This is the single strided core every other normal
  /// batch form (normal_vector, normal_fill) routes through; draw k
  /// equals sigma * normal() issued k-th, so scalar and lane-block
  /// samplers consuming the same stream stay bitwise-equal.
  void normal_fill_scaled(double sigma, double* out, std::size_t n,
                          std::size_t stride = 1);

  /// Derive an independent child stream by drawing from this engine.  The
  /// child depends on the current engine position (two forks give distinct
  /// streams) — use for sequential per-stage / per-run seeding.
  Rng fork() { return Rng(gen_()); }

  /// Counter-based stream split: the child depends only on this Rng's
  /// construction seed and `stream_id`, not on draw position.  Distinct ids
  /// give statistically independent, reproducible streams — the shard and
  /// per-sample streams of the parallel simulation engine.  O(1): cheap
  /// enough to fork one stream per Monte-Carlo die.
  Rng fork(std::uint64_t stream_id) const;

  /// Seed this Rng was constructed with (the stream key fork(id) mixes).
  std::uint64_t seed() const noexcept { return seed_; }

  Xoshiro256& engine() noexcept { return gen_; }
  const Xoshiro256& engine() const noexcept { return gen_; }

 private:
  /// Uniform double in [0, 1): the top 53 bits of one engine draw.
  double unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }
  /// Uniform double in (0, 1]: safe as a log() argument (tail sampling).
  double unit_pos() {
    return static_cast<double>((gen_() >> 11) + 1) * 0x1.0p-53;
  }

  std::uint64_t seed_;
  Xoshiro256 gen_;
};

/// SoA block of up to lanes::kMaxWidth xoshiro256** lane streams — the
/// draw-side twin of process::DieBlock.  pack() transposes W Rng engines
/// into four word-planes (s_[k][j] = word k of lane j); the batched fills
/// then advance all lanes through the active SIMD backend's draw kernels,
/// and unpack() writes the advanced states back so the caller's Rng array
/// continues exactly where scalar draws would have left it.
///
/// Per-lane stream identity: lane j's state evolves by the same recurrence,
/// and its draws are consumed by the same consumers in the same per-lane
/// order, as if lane j's Rng had issued them one by one — batching reorders
/// draws only across lanes.  Rare ziggurat rejections drop the affected
/// lane into ziggurat::normal_slow, the same code the scalar path runs, so
/// the equality is exact, not approximate (the backend×width matrix in
/// tests/test_simd.cpp pins it).
///
/// Fixed-capacity (2 KB inline, no heap): cheap to keep in per-shard
/// workspaces or on the stack.
class RngBlock {
 public:
  /// Captures lane_rngs[0..width) into SoA form.  Throws
  /// std::invalid_argument when width is 0 or exceeds lanes::kMaxWidth.
  void pack(const Rng* lane_rngs, std::size_t width);

  /// Writes the (advanced) lane states back onto lane_rngs[0..width()) —
  /// engine state only; each Rng keeps its own seed/stream key.
  void unpack(Rng* lane_rngs) const;

  std::size_t width() const noexcept { return width_; }

  /// Batched strided normal fill: out[i*stride + j] = sigma * (the i-th
  /// standard-normal deviate of lane j), for i < n, j < width().  Lane j's
  /// i-th value is bitwise-equal to the i-th call of
  /// lane_j.normal_fill_scaled(sigma, ...) on the same state.  Dispatched
  /// to the active SIMD backend; stride must be >= width().
  void normal_fill(double sigma, double* out, std::size_t n,
                   std::size_t stride);

 private:
  void require_packed(const char* fn) const;

  std::size_t width_ = 0;
  std::uint64_t s_[4][lanes::kMaxWidth];
};

}  // namespace statpipe::stats
