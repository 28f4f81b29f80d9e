// Persistent multi-tenant cluster service (wire v4): one resident worker
// fleet serves MANY RunDescriptors from MANY concurrent client sessions
// over one listener.
//
// The Service is the single execution engine of src/dist.  It owns:
//
//   * SESSIONS — every connection (worker or client) is granted a session
//     id via kWelcome and is bound to it: a frame carrying any other
//     session id is rejected, which is what defeats cross-session replay
//     of captured authenticated frames (the HMAC key is shared, so the
//     MAC alone cannot tell connections apart);
//   * REQUESTS — one submitted descriptor each, local (submit_local,
//     ClusterHandle's path) or remote (kSubmit from a client), with
//     per-request fold state, RunMetrics, status and result blob;
//   * the SCHEDULER (dist/scheduler.h) — priority + per-session
//     fair-share interleaving of all requests' unit ranges over the
//     fleet;
//   * the RESULT CACHE (dist/result_cache.h) — a resubmitted descriptor
//     (same canonical bytes, same root_seed) is answered from memory,
//     byte-identical to a recompute.
//
// Determinism contract, extended PER REQUEST (docs/DETERMINISM.md): the
// scheduling order of ranges across requests and workers may vary run to
// run, but every request's result bytes equal its single-process local
// reference — each request folds its own committed units in ascending
// unit order exactly as the v3 single-run coordinator did, and streams
// from different requests never mix (frames are request-scoped).
//
// The service knows no task kind.  dist/task.h decodes each streamed unit
// into a one-unit TaskResult, folds the committed prefix into the
// request's accumulator (the local engine's ascending left fold for
// Monte-Carlo shards, ascending append for SSTA grid lanes) and encodes
// the result blob; every kind takes the same staging, commit and fold
// path here.
//
// Failure semantics per worker are unchanged from v3: a worker that
// disconnects, errors, stalls past the read deadline or violates the
// protocol forfeits its in-flight range including everything it staged;
// the range re-enters its request's queue front with a per-range attempt
// budget, and exhausting the budget fails THAT REQUEST, not the service.
// An idle timeout (no event at all for idle_timeout_ms while requests are
// outstanding) fails every outstanding request.
//
// Threading: the Service is single-threaded — run() owns everything.
// Clients on other threads/processes talk to it over TCP (ServiceClient).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dist/hmac.h"
#include "dist/result_cache.h"
#include "dist/scheduler.h"
#include "dist/serialize.h"
#include "dist/task.h"
#include "dist/transport.h"

namespace statpipe::dist {

struct ServiceOptions {
  std::string bind_host = "127.0.0.1";  ///< 0.0.0.0 for multi-machine runs
  std::uint16_t port = 0;               ///< 0 = ephemeral, see port()
  /// Units per assignment; 0 = auto per request (n_units / 8).  Either
  /// way a range holds at least the task kind's smallest range
  /// (task_min_range_units: one MC shard, one grid block of
  /// sta::kMaxGridBlockLanes lanes) and at most the whole plan.  A pure
  /// scheduling knob: results are reassembled per unit, so this can never
  /// change output bytes, only load balance and fair-share grain.
  std::size_t units_per_range = 0;
  int max_attempts = 3;  ///< per range, >= 1
  /// Progress bound, 0 = wait forever: no event at all for this long
  /// while requests are outstanding fails every outstanding request.
  int idle_timeout_ms = 0;
  /// Per-connection read deadline on every admitted peer (0 = none).  A
  /// peer that goes silent — or drips bytes — mid-frame forfeits its range
  /// after this long instead of wedging run() (Socket::set_read_deadline_ms
  /// bounds even slow-loris drips).  30 s is long enough for any
  /// legitimate frame on a LAN and short enough that a stalled peer cannot
  /// hold a range hostage.
  int read_deadline_ms = 30000;
  /// Shared wire-key passphrase ("" = authentication disabled).
  std::string auth_key;
  /// Result-cache byte bound (sum of cached result blobs); 0 disables.
  std::size_t cache_max_bytes = std::size_t{64} << 20;
  bool verbose = false;  ///< progress lines on stderr
};

/// Always-on per-REQUEST accounting, surfaced by Service::local_metrics /
/// ClusterHandle::submit's out-param, and shipped to remote clients inside
/// kRequestDone (queue wait + cache flag).  Plain counters on the
/// event-loop control path — deterministic except the wall-clock fields —
/// so they are safe to report unconditionally, unlike the obs counters
/// which only accumulate while telemetry is enabled.
struct RunMetrics {
  std::size_t units = 0;            ///< plan size (task units)
  std::size_t ranges = 0;           ///< ranges the plan was cut into
  std::size_t assigns = 0;          ///< kAssign frames sent
  std::size_t commits = 0;          ///< ranges committed via kRangeDone
  std::size_t retries = 0;          ///< assignments beyond a range's first
  std::size_t forfeits = 0;         ///< in-flight ranges lost to dead peers
  std::size_t units_discarded = 0;  ///< staged units thrown away on forfeit
  std::size_t peak_staged_units = 0;  ///< high-water uncommitted staging
  std::size_t workers_admitted = 0;   ///< fleet size when the request ended
  double wall_ms = 0.0;             ///< submit to completion
  double queue_wait_ms = 0.0;       ///< submit to first range assignment
  std::size_t cache_hits = 0;       ///< 1 when served from the result cache
  std::size_t cache_misses = 0;     ///< 1 when computed (and then cached)
};

/// Service-wide totals, readable between run() calls (ClusterHandle and
/// the --serve CLI print them).
struct ServiceStats {
  std::size_t requests_submitted = 0;
  std::size_t requests_completed = 0;  ///< done or failed
  std::size_t requests_failed = 0;
  std::size_t sessions_opened = 0;     ///< kWelcome frames granted
  std::size_t workers_admitted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Fair-share deficit counters: units assigned per session so far, in
  /// session-id order (the scheduler's accounting, docs/OBSERVABILITY.md).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> session_units;
};

class Service {
 public:
  /// Binds the listener immediately (port() is valid before run()).
  /// Throws std::invalid_argument on max_attempts < 1.
  explicit Service(ServiceOptions opt);
  ~Service();

  std::uint16_t port() const noexcept { return listener_.port(); }

  /// Submits a descriptor from inside this process (the ClusterHandle
  /// path) and returns its request id.  Validates like the v3 coordinator
  /// did — unfinalized descriptor, invalid plan,
  /// unsatisfiable units_per_range and oversize unit payloads all throw
  /// std::invalid_argument before any worker sees anything.  A result
  /// cache hit completes the request immediately.
  std::uint64_t submit_local(const RunDescriptor& desc,
                             std::uint32_t priority = 0);

  /// Serves the event loop until `until` returns true (checked once per
  /// loop iteration).  Callers typically pass "local request N done" or
  /// "K requests completed".  Throws only on unrecoverable service errors
  /// (poll failure); per-request failures are stored per request.
  void run(const std::function<bool()>& until);

  /// True once the request completed OR failed.
  bool local_done(std::uint64_t rid) const;

  /// Takes a completed request's result; throws std::runtime_error with
  /// the stored failure message for a failed one.  Consumes the request.
  TaskResult take_local_result(std::uint64_t rid);

  /// The request's accounting (valid once local_done; also mid-failure).
  const RunMetrics& local_metrics(std::uint64_t rid) const;

  /// Sends kShutdown to every connected worker (best-effort) — how an
  /// owner winds the fleet down before reaping spawned processes.
  void shutdown_workers();

  /// Accepts and politely dismisses (kShutdown) every connection waiting
  /// in the listener backlog, without blocking.  An owner that spawned
  /// worker PROCESSES keeps calling this while reaping them, so a worker
  /// slow enough to connect only after the work ended is turned away
  /// instead of hanging in its setup read.
  void drain_backlog();

  std::size_t requests_completed() const noexcept {
    return stats_.requests_completed;
  }
  ServiceStats stats() const;

 private:
  struct Request {
    std::uint64_t rid = 0;
    std::uint64_t client_session = 0;  ///< 0 = local submission
    std::uint64_t client_id = 0;       ///< client-facing request id
    RunDescriptor desc;
    std::vector<std::uint8_t> desc_bytes;  ///< canonical kSetup payload
    Digest cache_key{};
    std::uint32_t priority = 0;
    std::size_t n_units = 0;
    enum class Status { kActive, kDone, kFailed } status = Status::kActive;
    std::string error;
    // Bounded-memory ascending fold state: units [0, folded_prefix) live
    // in acc (dist/task.h fold_unit); committed units beyond the prefix
    // wait in pending until the prefix reaches them.
    TaskResult acc;
    std::size_t folded_prefix = 0;
    std::map<std::size_t, TaskResult> pending;
    std::size_t staged_now = 0;  ///< uncommitted staged units, all workers
    RunMetrics metrics;
    std::int64_t submit_ns = 0;
    std::int64_t span_t0 = 0;  ///< obs request span start (0 = obs off)
    std::vector<std::uint8_t> result_blob;  ///< serialized, for cache/wire
    std::size_t done_units() const noexcept {
      return folded_prefix + pending.size();
    }
  };

  struct Peer {
    Socket sock;
    enum class Kind { kWorker, kClient } kind = Kind::kWorker;
    std::uint64_t session = 0;
    // Worker state:
    bool has_range = false;
    SchedTask task;
    std::int64_t assign_ns = 0;
    std::set<std::uint64_t> setup_rids;  ///< requests this worker holds
    std::map<std::size_t, TaskResult> staged;  ///< decoded, uncommitted
    // Client state:
    std::set<std::uint64_t> client_ids;  ///< request ids seen (dup guard)
  };

  std::uint64_t admit_request(RunDescriptor desc, std::uint32_t priority,
                              std::uint64_t client_session,
                              std::uint64_t client_id);
  void finish_request(Request& rq);
  /// By rid, not Request&: failing a REMOTE request erases it from
  /// requests_, so callers must not hold a reference across the call.
  void fail_request(std::uint64_t rid, const std::string& why);
  void admit_peer();
  void try_assign(Peer& w);
  bool service_worker(Peer& w);
  bool service_client(Peer& w);
  void handle_unit(Peer& w, Request& rq, const Frame& f);
  void handle_range_done(Peer& w, Request& rq, const Frame& f);
  void requeue(Peer& w, const std::string& why);
  void advance_fold(Request& rq);
  void release_request(std::uint64_t rid);
  bool outstanding_requests() const;

  ServiceOptions opt_;
  FrameAuth auth_;
  Listener listener_;
  Scheduler sched_;
  ResultCache cache_;
  std::vector<Peer> peers_;
  std::map<std::uint64_t, Request> requests_;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_rid_ = 1;
  ServiceStats stats_;
};

/// Blocking client for a running Service: one TCP connection, one session.
/// submit() assigns ascending request ids within the session; wait()
/// blocks until that request's kRequestDone (results arriving out of
/// submission order are stored until asked for).  Throws
/// std::runtime_error on transport errors, a service-side rejection
/// (kError), a failed request, or a kRequestDone whose task kind is not
/// the kind submitted under its request id.
class ServiceClient {
 public:
  ServiceClient(const std::string& host, std::uint16_t port,
                const std::string& auth_key = "", int connect_retry_ms = 5000);

  std::uint64_t session() const noexcept { return session_; }

  /// Submits one finalized descriptor; returns its request id.
  std::uint64_t submit(const RunDescriptor& desc, std::uint32_t priority = 0);

  /// Per-request service-side accounting shipped with the result.
  struct RequestInfo {
    bool cache_hit = false;
    double queue_wait_ms = 0.0;
  };

  /// Blocks until request `id` completes; returns its result (bitwise
  /// equal to the local reference — the service's contract).
  TaskResult wait(std::uint64_t id);

  /// Valid after wait(id) returned.
  const RequestInfo& info(std::uint64_t id) const;

 private:
  Socket sock_;
  FrameAuth auth_;
  std::uint64_t session_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, TaskKind> kinds_;  ///< submitted, by request id
  std::map<std::uint64_t, std::pair<TaskResult, RequestInfo>> done_;
  std::map<std::uint64_t, RequestInfo> infos_;  ///< survives wait()'s take
  std::map<std::uint64_t, std::string> failed_;
};

}  // namespace statpipe::dist
