// Cluster host: a dist::Service plus the localhost worker fleet it spawned
// (ClusterHandle), and the adapter that turns any "submit a descriptor,
// get its result" function into the shapes the upper layers consume.
//
// This is the piece that lets the optimizer layers run their candidate
// grids on a cluster WITHOUT ever including src/dist: `opt` routes grids
// through the sta::GridCharacterizer seam (sta/ssta_batch.h), and
// grid_characterizer() below manufactures a cluster-backed implementation
// of that seam.  Every submission carries the full determinism contract:
// the returned lanes are bitwise-identical to the local characterize_grid
// path (docs/DETERMINISM.md, tests/test_dist.cpp).
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists — opt reaches it only
// through the injected sta::GridCharacterizer.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dist/service.h"
#include "dist/task.h"
#include "netlist/netlist.h"
#include "sta/ssta_batch.h"

namespace statpipe::dist {

struct ClusterOptions {
  /// The hosted service: bind/port, range size, attempts, deadlines, wire
  /// key, result-cache bound.
  ServiceOptions coordinator;
  /// Fork this many localhost statpipe-worker processes (the one-command
  /// cluster).  0 = workers dial in from outside against port().
  std::size_t spawn_workers = 0;
  std::string worker_bin;  ///< required when spawn_workers > 0
};

/// A RESIDENT cluster: one Service and one spawned worker fleet that stay
/// up across any number of submit() calls — one-shot runs, the optimizer's
/// probe grids (no spawn/reap or workload re-setup per grid; repeated
/// grids hit the result cache) and the --serve daemon alike.  Spawned
/// workers run with --serve, so a worker whose session ends by disconnect
/// dials back in.  submit() and serve() drive the service event loop on
/// the CALLING thread, so the handle adds no threads of its own; it is not
/// safe for concurrent calls from multiple threads.  close() winds the
/// fleet down (kShutdown, then reap — SIGKILL after a grace period); the
/// destructor closes if the caller did not.
class ClusterHandle {
 public:
  /// Binds, spawns the fleet, returns immediately (workers connect in the
  /// background — the first submit() or serve() admits them).  Descriptors
  /// and units_per_range are validated per submit(), so after the spawn.
  explicit ClusterHandle(ClusterOptions opt);
  ~ClusterHandle();
  ClusterHandle(const ClusterHandle&) = delete;
  ClusterHandle& operator=(const ClusterHandle&) = delete;

  std::uint16_t port() const noexcept { return svc_.port(); }

  /// One full submission: validate, schedule over the resident fleet (or
  /// answer from the result cache), return the bitwise-deterministic
  /// result.  Throws std::invalid_argument on descriptor/option
  /// validation and std::runtime_error on a failed run.  A non-null
  /// `metrics` receives the request's RunMetrics even when the run throws.
  TaskResult submit(const RunDescriptor& desc, std::uint32_t priority = 0,
                    RunMetrics* metrics = nullptr);

  /// Serves remote clients (ServiceClient sessions) over the fleet until
  /// `until` returns true — Service::run on the hosted service.
  void serve(const std::function<bool()>& until) { svc_.run(until); }

  /// Service-wide totals (cache hits, per-session fair-share units, ...).
  ServiceStats stats() const { return svc_.stats(); }

  /// Shuts the fleet down, dismisses any connection still waiting in the
  /// listener backlog (even with no spawned workers, so a late external
  /// worker gets kShutdown instead of waiting) and reaps; idempotent.
  void close();

 private:
  ClusterOptions opt_;
  Service svc_;
  std::vector<pid_t> kids_;
  bool closed_ = false;
};

/// The registry workload name for a netlist the cluster can rebuild:
/// strips the generator's "_like" suffix from nl.name(), re-synthesizes
/// the circuit, transplants nl's sizes and verifies structural-hash
/// equality — so a netlist that is NOT reconstructible from the workload
/// registry (edited structure, foreign parser input) is rejected with a
/// clear error instead of silently characterizing the wrong circuit.
std::string workload_name_for(const netlist::Netlist& nl);

/// Cluster-backed sta::GridCharacterizer: each invocation packages the
/// grid as a kSstaGrid RunDescriptor (workload_name_for identity check;
/// spec, output_load and the model's technology copied into the
/// descriptor), finalizes it and hands it to `submit` — a ClusterHandle's
/// submit, or a ServiceClient's submit + wait.  Plug it into
/// opt::SweepOptions::grid / opt::GlobalOptimizerOptions::grid to farm
/// candidate grids out; results are bitwise-identical to leaving the hook
/// empty.  The optimizer calls the hook from several threads at once (its
/// per-stage sweeps run in parallel) and neither ClusterHandle nor
/// ServiceClient is thread-safe, so calls into `submit` are serialized by
/// a mutex that every copy of the returned hook shares; the descriptor is
/// built outside it.
sta::GridCharacterizer grid_characterizer(
    std::function<TaskResult(const RunDescriptor&)> submit);

}  // namespace statpipe::dist
