// Runtime-dispatched SIMD backend layer for the lane kernels.
//
// The lane kernels (the branch-free canonical max under the SSTA fold,
// the normal draw kernel, the block sample-STA walk over stats/lanes.h's
// pow core) are straight-line loops a compiler can vectorize — but how
// *wide* it vectorizes is fixed at compile time by the -m flags of the
// translation unit.  This layer compiles the one kernel source (lanes_kernels.inl)
// into several per-ISA translation units (scalar baseline, SSE4.2, AVX2,
// AVX-512, NEON) and selects one KernelTable at runtime:
//
//     lanes_kernels.inl ──┬── simd_scalar.cpp  (baseline flags)
//        (one source)     ├── simd_sse42.cpp   (-msse4.2)
//                         ├── simd_avx2.cpp    (-mavx2)
//                         ├── simd_avx512.cpp  (-mavx512{f,dq,bw,vl})
//                         └── simd_neon.cpp    (aarch64 baseline)
//                                   │
//            CPUID / env ──► kernels() ──► one KernelTable of fn pointers
//
// Selection happens once, lazily, on the first kernels() call: the highest
// ISA the CPU supports wins, unless the STATPIPE_SIMD environment variable
// forces a specific backend (scalar | sse42 | avx2 | avx512 | neon) for
// testing or reproduction.  An unknown or unsupported value throws up
// front, listing what this machine detected — never a silent fallback.
//
// Determinism contract (docs/DETERMINISM.md): *per backend*.  Every
// backend compiles the identical C++ kernel bodies with IEEE-preserving
// options only — no -ffast-math, no -mfma, and the project-wide
// -ffp-contract=off (CMakeLists.txt; gcc's C++ default is =fast, which
// would silently fuse on FMA-capable targets) — so lane k of a width-W
// kernel still executes exactly
// the scalar path's floating-point sequence and a backend is bitwise
// self-consistent across widths, thread counts and process counts.
// Cross-backend equality additionally holds on these no-FMA paths (wider
// registers change scheduling, not IEEE semantics), and the test suite
// asserts it; but only the per-backend contract is load-bearing — a future
// backend that fuses or reassociates would relax cross-backend equality,
// not correctness.
//
// Layer contract (src/stats, see docs/ARCHITECTURE.md): foundation layer —
// standard library only.  The kernel ABI below is raw pointers and PODs
// (no vector types, no callers' classes) so the seam stays clean for a
// future offload backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace statpipe::stats::simd {

/// The compiled-in instruction-set backends.  Which ones are *usable* on
/// this machine is a runtime question — see detected_backends().
enum class Backend : std::uint8_t { kScalar, kSse42, kAvx2, kAvx512, kNeon };

/// Lower-case backend name as accepted by STATPIPE_SIMD.
const char* backend_name(Backend b) noexcept;

/// Arguments of the block sample-STA walk kernel: the flattened stage
/// structure (topo order, CSR fanins, per-gate site/nominal/sqrt-size), the
/// SoA die block's component arrays (absent components are null), the
/// alpha-power parameters, and caller-owned lane scratch.  Plain arrays
/// only, so the kernel compiles in any backend TU without pulling in the
/// netlist/device/process layers.
struct StaWalkArgs {
  std::size_t width = 0;    ///< lanes per block (validated by the caller)
  std::size_t n_gates = 0;  ///< bound (non-pseudo) gates, topo order

  // Lane-invariant stage structure, one entry per bound gate.
  const std::size_t* gate_ids = nullptr;     ///< arrival row of each gate
  const std::size_t* site = nullptr;         ///< die site of each gate
  const double* nominal = nullptr;           ///< nominal delay [ps]
  const double* sqrt_size = nullptr;         ///< sqrt(gate size)
  const std::size_t* fanin_begin = nullptr;  ///< CSR offsets [n_gates + 1]
  const std::size_t* fanins = nullptr;       ///< CSR fanin arrival rows

  // SoA die block (site-major, lanes contiguous); null when absent.
  const double* dvth_inter = nullptr;  ///< [width]
  const double* dl_inter = nullptr;    ///< [width]
  const double* dvth_sys = nullptr;    ///< [sites * width] or null
  const double* dvth_rnd = nullptr;    ///< [sites * width] or null
  const double* dl_sys = nullptr;      ///< [sites * width] or null

  // Alpha-power variation parameters (device::AlphaPowerModel's
  // variation_kernel_params(), flattened to doubles).
  double drive0 = 0.0;     ///< Vdd - Vth0
  double alpha = 0.0;      ///< velocity-saturation index
  double min_ratio = 0.0;  ///< drive-ratio window accepted by the pow core
  double max_ratio = 0.0;

  // Caller-owned output and scratch.
  double* arrival = nullptr;  ///< [total gates * width], gate-major rows
  double* dvth = nullptr;     ///< [width] the faulting gate's shifts,
  double* dl = nullptr;       ///< [width]  written on fault return only

  const std::size_t* outputs = nullptr;  ///< primary-output arrival rows
  std::size_t n_outputs = 0;
  double* critical = nullptr;  ///< [width] per-lane critical delay
};

/// sta_block_walk's "no domain fault" return value.
inline constexpr std::size_t kNoFault = static_cast<std::size_t>(-1);

/// One backend's kernel set.  Function pointers rather than virtuals: the
/// table is selected once and the calls sit inside per-sample loops.
struct KernelTable {
  Backend backend;
  const char* name;          ///< lower-case, == backend_name(backend)
  std::size_t max_width;     ///< widest block this backend accepts
  std::size_t default_width; ///< width the backend prefers (bench/CLI hint)

  /// The canonical max, in place over n lanes: for every k < n, lane k of
  /// the first operand (mu1, b_inter1, sigma_ind1, b_sys1) becomes
  /// sta::canonical_max of it and lane k of the second, bitwise: both
  /// sigmas, the shared-normal correlation, Clark's moments (the Gaussian
  /// core inlined) and the re-projection onto the canonical form, every
  /// branch of the scalar operator a select.  Returns true when some lane
  /// fails stats::clark_max's input check (a NaN sigma or correlation);
  /// that lane's outputs are then meaningless and the caller replays the
  /// scalar operator to throw its exception.  Lane k reads and writes only
  /// index k (the loop carries `#pragma GCC ivdep`); the second operand
  /// must not overlap the first.  The loop calls nothing, so it vectorizes
  /// on every backend; callers pad n to whole vectors where lanes are few.
  bool (*canonical_max_lanes)(double* mu1, double* b_inter1,
                              double* sigma_ind1, double* b_sys1,
                              const double* mu2, const double* b_inter2,
                              const double* sigma_ind2, const double* b_sys2,
                              std::size_t n);

  /// Lane-batched ziggurat normal fill over w interleaved xoshiro256**
  /// streams: out[i*stride + j] = sigma * (the i-th standard-normal deviate
  /// of lane j's stream), for i < n, with the states (four SoA word planes
  /// s0..s3, lane j at index j) advanced in place.  The ~98.8%
  /// rectangle-accept fast path runs branch-free across the lane row; a
  /// rejected lane replays the identical tail/wedge logic through
  /// ziggurat::normal_slow (stats/rng.h) on its own state, so lane j is
  /// bitwise-equal to the same draws issued one by one on lane j's Rng —
  /// on every backend.
  void (*normal_fill_lanes)(std::uint64_t* s0, std::uint64_t* s1,
                            std::uint64_t* s2, std::uint64_t* s3,
                            std::size_t w, double sigma, std::size_t n,
                            std::size_t stride, double* out);

  /// The full block sample-STA walk (see sta/sta.cpp for the scalar
  /// equivalence argument), run on rows of a compile-time width for width
  /// 1 and each power of two from 8 to max_width, and of a run-time width
  /// otherwise.
  /// Returns kNoFault, or the index (into gate_ids/site/...) of the first
  /// gate whose lane row violates the variation-factor domain — the shifts
  /// of that row are left in a.dvth/a.dl so the caller can regenerate the
  /// exact scalar exception.
  std::size_t (*sta_block_walk)(const StaWalkArgs& a);
};

/// Backends usable on this machine, in increasing preference order (the
/// scalar reference is always first and always present).
std::vector<Backend> detected_backends();

/// Parses a STATPIPE_SIMD value ("scalar", "sse42", "avx2", "avx512",
/// "neon"); throws std::invalid_argument on an unknown name.
Backend parse_backend(const char* name);

/// The active backend's kernel table: STATPIPE_SIMD if set (throws
/// std::invalid_argument up front when the value is unknown or names a
/// backend this machine cannot run, listing what was detected), otherwise
/// the most preferred detected backend.  Resolved once on first call and
/// cached; the per-call cost is one atomic load.
const KernelTable& kernels();

/// The resolution core behind kernels() for one STATPIPE_SIMD value:
/// returns the named backend's table, or throws std::invalid_argument —
/// unknown name, or a backend this machine cannot run — with a message
/// listing the detected backends.  Exposed so tests can exercise the
/// forced-backend error paths without respawning processes.
const KernelTable& resolve_env(const char* value);

/// Kernel table of a specific backend, or nullptr when that backend is not
/// compiled in / not runnable on this CPU.  Lets tests iterate every
/// available backend inside one process.
const KernelTable* kernels_for(Backend b) noexcept;

/// Test hook: force kernels() to return backend `b` (must be available per
/// kernels_for) until clear_forced_backend_for_testing().  Not for
/// production use — switching backends mid-run changes max_width out from
/// under running engines; tests force only between runs.
void force_backend_for_testing(Backend b);
void clear_forced_backend_for_testing() noexcept;

namespace detail {
// One accessor per backend translation unit (simd_<backend>.cpp): returns
// that backend's table, or nullptr when the TU was compiled out for this
// architecture.  Internal — callers go through kernels()/kernels_for().
const KernelTable* scalar_table() noexcept;
const KernelTable* sse42_table() noexcept;
const KernelTable* avx2_table() noexcept;
const KernelTable* avx512_table() noexcept;
const KernelTable* neon_table() noexcept;
}  // namespace detail

}  // namespace statpipe::stats::simd
