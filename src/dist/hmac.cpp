#include "dist/hmac.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define STATPIPE_SHA_NI 1
#endif

namespace statpipe::dist {

namespace {

// FIPS 180-4 SHA-256.  Throughput matters: every service request hashes
// its whole canonical descriptor for the result-cache key (megabytes for a
// large SSTA grid), and an authenticated wire MACs every frame.  The block
// compress therefore runs on the x86 SHA extensions where the CPU has
// them, and a portable scalar loop everywhere else; both give the same
// digest, so which one runs never shows in a key or a trailer.

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

/// Portable compress of one 64-byte block into `state`.
void compress_block(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i)
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef STATPIPE_SHA_NI
/// Compress on the SHA extensions: each sha256rnds2 runs two rounds on the
/// state held as (A, B, E, F) and (C, D, G, H) words; sha256msg1/msg2
/// extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
  // Big-endian message words to little-endian lanes.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i dcba = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, dcba, 0xF0);
  for (std::size_t b = 0; b < blocks; ++b, data += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];  // message words 4i .. 4i+3 of the current quad
    for (int i = 0; i < 4; ++i)
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      __m128i& wq = w[q & 3];
      if (q >= 4)  // W[t] from W[t-16..t-13], W[t-12..], W[t-7..], W[t-4..]
        wq = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(wq, w[(q + 1) & 3]),
                          _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4)),
            w[(q + 3) & 3]);
      const __m128i wk = _mm_add_epi32(
          wq, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * q)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

/// Compresses `blocks` consecutive 64-byte blocks into `state`, on the
/// SHA extensions when the CPU has them (checked once per process).
void compress(std::uint32_t state[8], const std::uint8_t* data,
              std::size_t blocks) {
#ifdef STATPIPE_SHA_NI
  static const bool sha_ni =
      __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  if (sha_ni) return compress_sha_ni(state, data, blocks);
#endif
  for (std::size_t b = 0; b < blocks; ++b) compress_block(state, data + 64 * b);
}

/// Incremental SHA-256: update() over any split of a message, then
/// final().  Whole 64-byte blocks are compressed straight from the
/// caller's memory; only a partial block is buffered, so a message is
/// never copied.
class Sha256 {
 public:
  Sha256() { std::memcpy(state_, kInit, sizeof state_); }

  void update(const std::uint8_t* data, std::size_t n) {
    if (n == 0) return;
    length_ += n;
    if (buffered_ > 0) {
      const std::size_t take = std::min(n, std::size_t{64} - buffered_);
      std::memcpy(buf_ + buffered_, data, take);
      buffered_ += take;
      data += take;
      n -= take;
      if (buffered_ < 64) return;
      compress(state_, buf_, 1);
      buffered_ = 0;
    }
    const std::size_t full = n / 64;
    compress(state_, data, full);
    buffered_ = n - 64 * full;
    if (buffered_ > 0) std::memcpy(buf_, data + 64 * full, buffered_);
  }

  Digest final() {
    // Final block(s): remainder, 0x80 pad, zeros, 64-bit big-endian bit
    // count.
    std::uint8_t tail[128] = {};
    if (buffered_ > 0) std::memcpy(tail, buf_, buffered_);
    tail[buffered_] = 0x80;
    const std::size_t tail_blocks = buffered_ >= 56 ? 2 : 1;
    const std::uint64_t bits = length_ * 8;
    for (int k = 0; k < 8; ++k)
      tail[64 * tail_blocks - 8 + k] =
          static_cast<std::uint8_t>(bits >> (8 * (7 - k)));
    compress(state_, tail, tail_blocks);
    Digest out;
    for (int k = 0; k < 8; ++k) {
      out[4 * k] = static_cast<std::uint8_t>(state_[k] >> 24);
      out[4 * k + 1] = static_cast<std::uint8_t>(state_[k] >> 16);
      out[4 * k + 2] = static_cast<std::uint8_t>(state_[k] >> 8);
      out[4 * k + 3] = static_cast<std::uint8_t>(state_[k]);
    }
    return out;
  }

 private:
  std::uint32_t state_[8];
  std::uint8_t buf_[64];
  std::size_t buffered_ = 0;
  std::uint64_t length_ = 0;
};

}  // namespace

Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data.data(), data.size());
  return h.final();
}

Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> data) {
  constexpr std::size_t kBlock = 64;
  std::uint8_t k0[kBlock] = {};
  if (key.size() > kBlock) {
    const Digest kh = sha256(key);
    std::memcpy(k0, kh.data(), kh.size());
  } else if (!key.empty()) {
    std::memcpy(k0, key.data(), key.size());
  }
  std::uint8_t inner[kBlock], outer[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    inner[i] = static_cast<std::uint8_t>(k0[i] ^ 0x36);
    outer[i] = static_cast<std::uint8_t>(k0[i] ^ 0x5c);
  }
  // H(K0 ^ opad || H(K0 ^ ipad || data)), each pad one whole block, so the
  // data is hashed in place.
  Sha256 ih;
  ih.update(inner, kBlock);
  ih.update(data.data(), data.size());
  const Digest inner_digest = ih.final();
  Sha256 oh;
  oh.update(outer, kBlock);
  oh.update(inner_digest.data(), inner_digest.size());
  return oh.final();
}

bool digest_equal_consttime(const Digest& a, const Digest& b) noexcept {
  // Accumulate the XOR of every byte pair; branch only on the final fold so
  // the time taken is independent of where (or whether) the digests differ.
  volatile std::uint8_t acc = 0;
  for (std::size_t i = 0; i < kDigestSize; ++i)
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

FrameAuth FrameAuth::from_passphrase(const std::string& passphrase) {
  FrameAuth a;
  if (passphrase.empty()) return a;
  a.enabled = true;
  a.key = sha256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(passphrase.data()),
      passphrase.size()));
  return a;
}

FrameAuth FrameAuth::from_env() {
  const char* v = std::getenv("STATPIPE_WIRE_KEY");
  return from_passphrase(v ? std::string(v) : std::string());
}

Digest FrameAuth::mac(std::span<const std::uint8_t> data) const {
  return hmac_sha256(std::span<const std::uint8_t>(key.data(), key.size()),
                     data);
}

}  // namespace statpipe::dist
