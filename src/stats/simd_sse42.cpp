// SSE4.2 backend (x86-64 only): the 2008-baseline target the lane layer
// was originally pinned to.  SSE4.2 supplies the packed int64 compare and
// blend ops pow_pos's bit tricks need, at 2 doubles per register.
//
// Width policy mirrors the pre-dispatch layer exactly — max 16, default 8
// — so forcing STATPIPE_SIMD=sse42 reproduces the historical kernel
// byte-for-byte in behavior and in accepted widths.
//
// The TU body is arch-gated: on non-x86 builds it compiles empty and the
// accessor reports the backend as unavailable.
#if defined(__x86_64__) || defined(_M_X64)

#define STATPIPE_SIMD_NS sse42
#define STATPIPE_SIMD_MAX_WIDTH 16
#include "stats/lanes_kernels.inl"

namespace statpipe::stats::simd::detail {

const KernelTable* sse42_table() noexcept {
  static constexpr KernelTable t{
      Backend::kSse42,
      "sse42",
      /*max_width=*/sse42::kWidthCap,
      /*default_width=*/8,
      &sse42::canonical_max_lanes,
      &sse42::normal_fill_lanes,
      &sse42::sta_block_walk,
  };
  return &t;
}

}  // namespace statpipe::stats::simd::detail

#else  // non-x86: backend compiled out

#include "stats/simd.h"

namespace statpipe::stats::simd::detail {
const KernelTable* sse42_table() noexcept { return nullptr; }
}  // namespace statpipe::stats::simd::detail

#endif
