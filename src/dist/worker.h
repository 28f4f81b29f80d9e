// Distributed worker runtime: dials the service, is granted a session
// (kWelcome), and stays RESIDENT — serving unit-range assignments for any
// number of descriptors over one connection until shutdown (wire v4).
//
// Each kSetup installs one request's workload as a UnitRangeRunner
// (dist/task.h), keyed by the request id in the frame header; kRelease
// drops it when the service is done with the request.  Per assignment the
// worker executes the contiguous unit range — Monte-Carlo shard ranges
// via GateLevelMonteCarlo::run_shard_range, SSTA grid lane ranges via
// sta::characterize_grid — and STREAMS one kResult frame per unit
// (unmerged, ascending, as units complete), finishing the range with a
// kRangeDone commit marker; every outbound frame is scoped to (session,
// request).
// The service stages the stream and commits it atomically on the marker,
// so a worker that dies mid-range forfeits everything it streamed and the
// run stays bitwise-deterministic.  Workload construction failures
// (unknown circuit, netlist hash mismatch, invalid grid) are reported as
// kError frames and end the session: a worker that cannot prove it holds
// the service's exact workload must not contribute results.
//
// With a shared wire key configured (WorkerOptions::auth_key) every frame
// in both directions carries an HMAC-SHA256 trailer; a coordinator on the
// wrong side of the key config is rejected, not half-trusted.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "dist/serialize.h"
#include "dist/task.h"

namespace statpipe::dist {

struct WorkerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  int connect_retry_ms = 5000;  ///< keep dialing a not-yet-bound coordinator
  /// Shared wire-key passphrase ("" = authentication disabled).  Must
  /// match the coordinator's: mismatch or absence on either side is a
  /// frame authentication error, never a silent downgrade.
  std::string auth_key;
  bool verbose = false;         ///< progress lines on stderr
};

/// Maps a RunDescriptor to a unit-range runner.  The default factory
/// (task-registry-based, all task kinds) suits the statpipe-worker daemon;
/// tests inject factories that fail on purpose.
using WorkloadFactory = std::function<UnitRangeRunner(const RunDescriptor&)>;

/// The task-registry factory used by the worker daemon — dispatches on
/// desc.task_kind via dist/task.h's make_unit_runner.
WorkloadFactory default_workload_factory();

/// Runs one worker session to completion: connect, hello, welcome, then
/// serve setups/assignments/releases for any number of requests, exiting
/// on kShutdown or service disconnect.  Returns the number of ranges
/// completed.  Throws std::runtime_error on transport errors; workload
/// construction failure is reported to the service as kError and returns
/// normally.  A non-null `shutdown_received` is set to whether the
/// session ended on an explicit kShutdown (fleet wind-down) as opposed to
/// a disconnect — what the --serve reconnect loop keys its exit on.
std::size_t run_worker(const WorkerOptions& opt, const WorkloadFactory& make,
                       bool* shutdown_received = nullptr);

}  // namespace statpipe::dist
