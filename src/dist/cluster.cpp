#include "dist/cluster.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dist/workload.h"
#include "netlist/generators.h"
#include "obs/log.h"

extern char** environ;

namespace statpipe::dist {

namespace {

// Forks one resident statpipe-worker against `port` (posix_spawn).  A
// non-empty `auth_key` travels as --key so the worker speaks the service's
// authenticated wire.  Throws std::runtime_error when the binary cannot
// be spawned.
pid_t spawn_worker(const std::string& worker_bin, std::uint16_t port,
                   bool quiet, const std::string& auth_key) {
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(worker_bin.c_str()),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str()),
                          const_cast<char*>("--serve")};
  if (quiet) args.push_back(const_cast<char*>("--quiet"));
  if (!auth_key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(auth_key.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, worker_bin.c_str(), nullptr, nullptr,
                               args.data(), environ);
  if (rc != 0)
    throw std::runtime_error("dist: cannot spawn " + worker_bin + ": " +
                             std::strerror(rc));
  return pid;
}

// Reaps every spawned worker.  For the first `grace_ms` the worker winds
// down on its own — after kShutdown, a worker mid-range finishes its
// current units first — while the listener backlog keeps draining, so a
// worker slow enough to connect only now is dismissed with kShutdown
// instead of hanging in its setup read (and us in waitpid).  Then SIGKILL.
// grace_ms = 0 is the failure path: a failed spawn or a throwing close
// kills at once, because this is library code inside long-lived optimizer
// processes, not a CLI about to exit, and must not leak workers.  An
// abnormal exit cannot taint a result — every unit was validated and
// reassembled before submit() returned — so it is a warning, not an error.
void kill_and_reap(Service& svc, std::vector<pid_t>& kids, int grace_ms,
                   bool verbose) {
  for (pid_t pid : kids) {
    int status = 0;
    pid_t got = 0;
    for (int waited_ms = 0; waited_ms < grace_ms; waited_ms += 20) {
      got = ::waitpid(pid, &status, WNOHANG);
      if (got != 0) break;
      svc.drain_backlog();
      ::usleep(20 * 1000);
    }
    const std::string who = "worker " + std::to_string(pid);
    if (got == 0) {
      ::kill(pid, SIGKILL);
      while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
      }
      if (grace_ms > 0)
        obs::log_warn("cluster", who + " ignored shutdown; killed");
    } else if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      obs::log_warn("cluster",
                    who + " exited abnormally (completed results unaffected)");
    } else {
      obs::log_info("cluster", "reaped " + who, verbose);
    }
  }
  kids.clear();
}

}  // namespace

ClusterHandle::ClusterHandle(ClusterOptions opt)
    : opt_(std::move(opt)), svc_(opt_.coordinator) {
  if (opt_.spawn_workers > 0 && opt_.worker_bin.empty())
    throw std::invalid_argument(
        "dist: ClusterHandle with spawn_workers > 0 needs a worker_bin path");
  const ServiceOptions& so = opt_.coordinator;
  try {
    for (std::size_t i = 0; i < opt_.spawn_workers; ++i) {
      kids_.push_back(
          spawn_worker(opt_.worker_bin, svc_.port(), !so.verbose, so.auth_key));
      obs::log_info("cluster",
                    "spawned resident worker pid " +
                        std::to_string(kids_.back()),
                    so.verbose);
    }
  } catch (...) {
    kill_and_reap(svc_, kids_, 0, so.verbose);
    throw;
  }
}

ClusterHandle::~ClusterHandle() {
  try {
    close();
  } catch (...) {
    // Destructor: reap what we can, never throw.
    kill_and_reap(svc_, kids_, 0, opt_.coordinator.verbose);
  }
}

TaskResult ClusterHandle::submit(const RunDescriptor& desc,
                                 std::uint32_t priority, RunMetrics* metrics) {
  if (closed_)
    throw std::logic_error("dist: submit on a closed ClusterHandle");
  const std::uint64_t rid = svc_.submit_local(desc, priority);
  svc_.run([&] { return svc_.local_done(rid); });
  // Snapshot before take: taking (or rethrowing a failure) consumes the
  // request, and the caller gets its accounting either way.
  if (metrics != nullptr) *metrics = svc_.local_metrics(rid);
  return svc_.take_local_result(rid);
}

void ClusterHandle::close() {
  if (closed_) return;
  closed_ = true;
  svc_.shutdown_workers();
  svc_.drain_backlog();
  kill_and_reap(svc_, kids_, 5000, opt_.coordinator.verbose);
}

std::string workload_name_for(const netlist::Netlist& nl) {
  std::string name = nl.name();
  constexpr const char* kSuffix = "_like";
  constexpr std::size_t kSuffixLen = 5;
  if (name.size() > kSuffixLen &&
      name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) == 0)
    name.resize(name.size() - kSuffixLen);
  netlist::Netlist rebuilt = netlist::iscas_like(name);  // throws on unknown
  if (rebuilt.size() != nl.size())
    throw std::invalid_argument(
        "dist: netlist '" + nl.name() + "' is not the registry's '" + name +
        "' (gate count " + std::to_string(nl.size()) + " vs rebuilt " +
        std::to_string(rebuilt.size()) + ")");
  // Transplant the caller's sizes so the comparison checks structure
  // modulo sizing — the grid carries explicit per-lane size vectors, so
  // sizes are the one thing allowed to differ.
  rebuilt.set_sizes(nl.sizes());
  if (rebuilt.structural_hash() != nl.structural_hash())
    throw std::invalid_argument(
        "dist: netlist '" + nl.name() +
        "' is not reconstructible from the workload registry ('" + name +
        "' differs structurally); cluster grid submission needs a "
        "generator-built netlist");
  return name;
}

sta::GridCharacterizer grid_characterizer(
    std::function<TaskResult(const RunDescriptor&)> submit) {
  return [submit = std::move(submit), mu = std::make_shared<std::mutex>()](
             const netlist::Netlist& nl, const device::AlphaPowerModel& model,
             const std::vector<std::vector<double>>& size_grid,
             const process::VariationSpec& spec, const sta::SstaOptions& sopt)
             -> std::vector<sta::StageCharacterization> {
    RunDescriptor desc;
    desc.task_kind = TaskKind::kSstaGrid;
    desc.workload = workload_name_for(nl);
    desc.size_grid = size_grid;
    set_descriptor_technology(desc, model.technology());
    set_descriptor_spec(desc, spec);
    desc.output_load = sopt.output_load;
    finalize_descriptor(desc);
    const std::lock_guard<std::mutex> lock(*mu);
    return submit(desc).lanes;
  };
}

}  // namespace statpipe::dist
