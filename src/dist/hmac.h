// Frame authentication for the distributed wire: SHA-256, HMAC-SHA256 and
// a constant-time digest comparison, self-contained (no OpenSSL — the
// toolchain is the only dependency this repo takes).
//
// SHA-256 is on the request path twice: dist::ResultCache keys every
// service request by the digest of its canonical descriptor (a large SSTA
// grid is megabytes), and an authenticated wire MACs every frame.  So its
// throughput counts: the block compress runs on the x86 SHA extensions
// when the CPU has them and a portable loop otherwise, with one digest.
//
// Used by dist/transport.cpp to append a 32-byte HMAC trailer to every
// frame when a shared key is configured (docs/WIRE_FORMAT.md, v3): the MAC
// covers header and payload, so a tampered, truncated-then-padded or
// spliced frame fails verification instead of parsing.  Verification is
// constant-time in the digest comparison so a byte-at-a-time oracle
// cannot recover the MAC.  Scope note: this authenticates peers that hold
// the shared key; it does not encrypt, and it does not by itself prevent
// replay of a captured frame under the same key (see WIRE_FORMAT.md's
// threat-model section).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace statpipe::dist {

inline constexpr std::size_t kDigestSize = 32;  ///< SHA-256 output bytes

using Digest = std::array<std::uint8_t, kDigestSize>;

/// SHA-256 of `data` (FIPS 180-4): the result-cache key and the core of
/// every HMAC.  Runs the SHA-NI block loop where __builtin_cpu_supports
/// ("sha") holds, the portable compress elsewhere; the digest is the same.
Digest sha256(std::span<const std::uint8_t> data);

/// HMAC-SHA256 (RFC 2104) of `data` under `key`.  Keys longer than the
/// 64-byte block are hashed first, per the RFC.
Digest hmac_sha256(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> data);

/// Constant-time equality of two digests: every byte is examined
/// regardless of where the first mismatch sits, so timing does not leak
/// the position of a forgery's first wrong byte.
bool digest_equal_consttime(const Digest& a, const Digest& b) noexcept;

/// Shared-key frame authentication context.  Disabled (no key) by
/// default; a configured key enables the HMAC trailer on every frame in
/// both directions.  The wire key is the SHA-256 of the user's passphrase
/// string, so passphrases of any length map onto one fixed-size key and
/// the raw passphrase bytes never sit in the frame pipeline.
struct FrameAuth {
  bool enabled = false;
  Digest key{};

  /// Disabled context when `passphrase` is empty, enabled otherwise.
  static FrameAuth from_passphrase(const std::string& passphrase);
  /// Context from the STATPIPE_WIRE_KEY environment variable (disabled
  /// when unset or empty).
  static FrameAuth from_env();

  Digest mac(std::span<const std::uint8_t> data) const;
};

}  // namespace statpipe::dist
