// Versioned, endian-safe binary serialization for distributed runs.
//
// Everything a unit-range result or a run descriptor contains is written
// as explicit little-endian bytes (u8/u16/u32/u64 integers, doubles as
// their IEEE-754 bit patterns), so a payload produced on any host decodes
// identically on any other — and, critically for the repository-wide
// determinism contract, a stats::RunningStats, mc::McResult or
// sta::StageCharacterization that crosses a process boundary is
// reconstructed bit for bit: serialization must never be the reason a
// distributed run diverges from a local one.
//
// Framing carries a magic number and a format version (kWireVersion);
// readers reject unknown magic/versions up front with a clear error
// instead of misparsing, and the RunDescriptor leads with its TaskKind
// discriminator so an unknown task kind is reported as exactly that.
// Round-trips are byte-stable: serialize ∘ deserialize ∘ serialize is the
// identity on bytes (fuzzed in tests/test_dist.cpp).  The byte-level spec
// of every record lives in docs/WIRE_FORMAT.md; keep the two in sync.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/protocol.h"
#include "mc/pipeline_mc.h"
#include "sta/characterize.h"
#include "stats/descriptive.h"

namespace statpipe::dist {

/// Wire format magic ("SPD1" little-endian) and version.  Bump the version
/// on any layout change; readers reject mismatches.  v1 (PR 4) carried the
/// Monte-Carlo-only descriptor; v2 added the task-kind discriminator and
/// the SSTA grid payload; v3 (PR 7) added the frame-header flags field,
/// the optional HMAC-SHA256 frame trailer, and streaming per-unit
/// kResult frames with the kRangeDone commit marker; v4 (service wire)
/// added the session_id/request_id header fields plus the client/service
/// message types (kClientHello..kRelease) so one resident fleet serves
/// many descriptors from many concurrent sessions; v5 shrank the
/// StageCharacterization record (a kSstaGrid unit) from 48 to 32 bytes.
inline constexpr std::uint32_t kWireMagic = 0x31445053;
inline constexpr std::uint16_t kWireVersion = 5;

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 bit pattern, little-endian — exact, not formatted.
  void f64(double v);
  /// u64 length followed by raw bytes.
  void str(const std::string& s);
  /// u64 count, then each value as f64() writes it.  On little-endian
  /// hosts the array is copied as one block (the same bytes).
  void f64_vec(const std::vector<double>& v);
  /// Appends pre-serialized bytes verbatim (no length prefix) — how a
  /// worker splices already-encoded unit payloads into a kResult frame.
  void append(const std::vector<std::uint8_t>& b);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader over a borrowed buffer.  Every read
/// past the end throws std::runtime_error("dist: truncated payload ...").
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  /// Inverse of ByteWriter::f64_vec.  A count the remaining bytes cannot
  /// hold throws before anything is allocated.
  std::vector<double> f64_vec();
  /// Every remaining byte, consumed to the end — for trailing unprefixed
  /// blob fields (e.g. the result blob inside a kRequestDone payload).
  std::vector<std::uint8_t> rest();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool done() const noexcept { return pos_ == data_.size(); }
  /// Throws std::runtime_error when trailing bytes remain — a framing bug.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// --------------------------------------------------------------- payloads
// Field-level writers/readers compose into message payloads; each is the
// exact inverse of its counterpart.

void write_running_stats(ByteWriter& w, const stats::RunningStats& s);
stats::RunningStats read_running_stats(ByteReader& r);

void write_mc_result(ByteWriter& w, const mc::McResult& r);
mc::McResult read_mc_result(ByteReader& r);

/// Four f64 fields in declaration order (32 bytes) — the unit payload of a
/// kSstaGrid lane.  Exact bit patterns, so a lane that crossed the wire is
/// indistinguishable from one computed locally.
void write_stage_characterization(ByteWriter& w,
                                  const sta::StageCharacterization& c);
sta::StageCharacterization read_stage_characterization(ByteReader& r);

/// Everything a worker needs to reconstruct a run bit for bit: the task
/// kind, the workload identity (name + structural hash, verified on the
/// worker), the RNG keys, the unit plan inputs, the sampling/timing
/// options and — for kSstaGrid — the K-lane size grid itself.
/// For Monte-Carlo, shard boundaries and stream ids depend only on
/// (root_seed, n_samples, samples_per_shard) — the process count is as
/// invisible as the thread count.  For SSTA grids the lanes carry no
/// random state at all, so any lane partitioning reproduces the local
/// batch bit for bit (docs/DETERMINISM.md).
struct RunDescriptor {
  TaskKind task_kind = TaskKind::kMonteCarlo;
  std::string workload;            ///< comma-separated ISCAS85 stage names
                                   ///< (kSstaGrid: exactly one name)
  std::uint64_t netlist_hash = 0;  ///< combined Netlist::structural_hash
  std::uint64_t seed = 0;          ///< user-facing run seed (display)
  std::uint64_t root_seed = 0;     ///< engine root key (derive_root_seed)
  std::uint64_t n_samples = 0;     ///< kMonteCarlo only; ignored for grids
  std::uint64_t samples_per_shard = 1024;
  std::uint64_t block_width = 8;
  /// kSstaGrid payload: one full per-gate size vector per sweep lane.
  /// Every lane must carry a complete vector (empty lanes are rejected —
  /// they would silently fall back to the rebuilt netlist's base sizes).
  std::vector<std::vector<double>> size_grid;
  // process::VariationSpec
  double sigma_vth_inter = 0.020;
  double sigma_vth_systematic = 0.0;
  double correlation_length = 0.5;
  std::uint8_t enable_rdf = 1;
  double sigma_l_inter_rel = 0.0;
  double sigma_l_systematic_rel = 0.0;
  // sta::StaOptions
  double output_load = 2.0;
  // device::LatchTiming
  double latch_tcq_ps = 22.0;
  double latch_tsetup_ps = 14.0;
  double latch_random_sigma_rel = 0.02;
  // process::Technology — the delay model's parameters travel too, so a
  // workload built against a non-default technology is replayed exactly
  // instead of silently falling back to defaults on the worker.  Defaults
  // mirror process::Technology's.
  double tech_vdd = 1.0;
  double tech_vth0 = 0.20;
  double tech_leff = 70e-9;
  double tech_wmin = 140e-9;
  double tech_alpha = 1.3;
  double tech_tau_ps = 4.0;
  double tech_avt = 30e-3 * 9.899494936611665e-8;
};

void write_run_descriptor(ByteWriter& w, const RunDescriptor& d);
RunDescriptor read_run_descriptor(ByteReader& r);

/// The run key GateLevelMonteCarlo::run derives from a user seed (one
/// fork() draw): run_shard_range(n, derive_root_seed(seed), ...) on any
/// process reproduces run(n, Rng(seed))'s shard streams exactly.
std::uint64_t derive_root_seed(std::uint64_t seed);

// ------------------------------------------------------------ file blobs
// Standalone blob form (magic + version header) for dumping results to
// disk or diffing runs byte for byte.

std::vector<std::uint8_t> serialize_mc_result(const mc::McResult& r);
mc::McResult deserialize_mc_result(std::span<const std::uint8_t> bytes);

/// Standalone blob form of an SSTA-grid result (all lanes, ascending lane
/// order) under the same magic + version header.
std::vector<std::uint8_t> serialize_characterizations(
    const std::vector<sta::StageCharacterization>& lanes);
std::vector<sta::StageCharacterization> deserialize_characterizations(
    std::span<const std::uint8_t> bytes);

/// True when the two results are bit-for-bit identical (samples, per-stage
/// accumulator states and label) — the acceptance predicate for
/// distributed-vs-local equality, implemented as byte equality of the
/// serialized forms.
bool bitwise_equal(const mc::McResult& a, const mc::McResult& b);

/// Lane-grid twin of the McResult predicate: bit-for-bit equality of two
/// characterization vectors (length and every f64 bit pattern).
bool bitwise_equal(const std::vector<sta::StageCharacterization>& a,
                   const std::vector<sta::StageCharacterization>& b);

}  // namespace statpipe::dist
