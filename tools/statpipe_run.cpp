// statpipe-run — distributed task coordinator entry point.
//
// Plans a distributed task, serves unit ranges to statpipe-worker
// processes over TCP, reassembles their per-unit results in ascending
// unit order, and prints a summary.  Two task kinds:
//
//   --task mc          (default) gate-level Monte-Carlo: units are sim
//                      shards, the merged result is the yield estimate.
//   --task ssta-sweep  distributed area-delay sweep: the sweep's candidate
//                      grids (SSTA sweep-config lanes) are farmed to the
//                      cluster via dist::grid_characterizer; the workload
//                      must name exactly one circuit.  A grid range holds
//                      at least one 8-lane block (sta::kMaxGridBlockLanes).
//
// With --check-local the identical workload also runs single-process and
// the distributed result must be bitwise-identical — the subsystem's
// acceptance gate, used by the CI dist-smoke job for both task kinds.
//
//   statpipe-run --workload c3540,c432 --samples 4096 [--seed 90210]
//                [--task mc|ssta-sweep] [--points N]
//                [--port 0] [--host 127.0.0.1]
//                [--samples-per-shard 256] [--block-width 8]
//                [--units-per-range N] [--max-attempts 3]
//                [--spawn N --worker-bin PATH] [--timeout-ms N]
//                [--key PASSPHRASE] [--check-local] [--quiet]
//
// --key (or the STATPIPE_WIRE_KEY environment variable; the flag wins)
// enables the HMAC-SHA256 frame trailer on every wire frame; workers must
// hold the same key (spawned workers inherit it automatically).
//
// --spawn N forks N local statpipe-worker processes pointed at the bound
// port (default worker binary: ./statpipe-worker next to this one) — the
// one-command localhost cluster.  Without --spawn, start workers yourself
// against the printed port.  Wire format: docs/WIRE_FORMAT.md; bitwise
// contract: docs/DETERMINISM.md.
//
// SERVICE MODE (wire v4): --serve hosts a persistent multi-tenant service
// instead of running one task — resident workers (--spawn N forks them in
// --serve reconnect mode), many concurrent client sessions, fair-share
// scheduling and a content-addressed result cache.  --serve-requests N
// exits after N requests completed (CI's bounded service leg); without it
// the service runs until killed.  --connect HOST:PORT turns this binary
// into a CLIENT of such a service: the same --task/--workload flags
// describe the run, but it is submitted over the wire and the result
// (with cache/queue accounting) comes back on this session.  Both modes
// run the same task code; only the submit function differs, and every
// request (each grid of a sweep included) carries --priority.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>

#include "dist/cluster.h"
#include "dist/task.h"
#include "dist/workload.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"
#include "opt/sweep.h"
#include "stats/gaussian.h"

namespace {

namespace sp = statpipe;

// Per-run dist accounting, printed unconditionally after every completed
// run: RunMetrics is always-on service state, so the block costs nothing
// extra and needs no telemetry (obs counters stay disabled unless
// --metrics / STATPIPE_TRACE turned them on).
void print_dist_metrics(const sp::dist::RunMetrics& m, std::size_t requests) {
  std::printf(
      "dist metrics%s: %zu unit(s) in %zu range(s), %zu assign(s) "
      "(%zu retried), %zu commit(s), %zu forfeit(s) (%zu unit(s) "
      "discarded), peak staged %zu, %zu worker(s), queue wait %.1f ms, "
      "cache %zu hit(s) / %zu miss(es), wall %.1f ms\n",
      requests > 1 ? (" (" + std::to_string(requests) + " requests)").c_str()
                   : "",
      m.units, m.ranges, m.assigns, m.retries, m.commits, m.forfeits,
      m.units_discarded, m.peak_staged_units, m.workers_admitted,
      m.queue_wait_ms, m.cache_hits, m.cache_misses, m.wall_ms);
}

// Sums a sweep's per-grid requests.  They share one resident fleet, so
// the worker count is the fleet's, not a sum.
void accumulate(sp::dist::RunMetrics& acc, const sp::dist::RunMetrics& m) {
  acc.units += m.units;
  acc.ranges += m.ranges;
  acc.assigns += m.assigns;
  acc.commits += m.commits;
  acc.retries += m.retries;
  acc.forfeits += m.forfeits;
  acc.units_discarded += m.units_discarded;
  acc.peak_staged_units = std::max(acc.peak_staged_units, m.peak_staged_units);
  acc.workers_admitted = std::max(acc.workers_admitted, m.workers_admitted);
  acc.queue_wait_ms += m.queue_wait_ms;
  acc.cache_hits += m.cache_hits;
  acc.cache_misses += m.cache_misses;
  acc.wall_ms += m.wall_ms;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --workload NAMES --samples N [--seed S] [--port P]\n"
      "          [--task mc|ssta-sweep] [--points N] [--host H]\n"
      "          [--samples-per-shard N] [--block-width W]\n"
      "          [--sigma-systematic V]\n"
      "          [--units-per-range N] [--max-attempts N] [--timeout-ms N]\n"
      "          [--spawn N] [--worker-bin PATH] [--key K] [--check-local]\n"
      "          [--metrics PATH] [--quiet]\n"
      "       %s --serve [--serve-requests N] [--spawn N] [dist flags]\n"
      "       %s --connect HOST:PORT [--priority N] [task flags]\n"
      "\n"
      "--serve hosts a persistent multi-tenant service (wire v4): resident\n"
      "workers, concurrent client sessions, fair-share scheduling, result\n"
      "cache.  --serve-requests N exits once N requests completed (0 =\n"
      "run until killed).  --connect submits this invocation's task to a\n"
      "running service instead of self-hosting a coordinator.\n"
      "\n"
      "--metrics PATH enables runtime telemetry (src/obs) and dumps the\n"
      "JSON metrics snapshot to PATH on success; STATPIPE_TRACE=PATH\n"
      "additionally writes a Chrome trace at exit (docs/OBSERVABILITY.md).\n"
      "\n"
      "task kinds (docs/WIRE_FORMAT.md):\n"
      "  mc          gate-level Monte-Carlo; units are sim shards\n"
      "              (--samples required; NAMES may list several stages)\n"
      "  ssta-sweep  distributed area-delay sweep; units are SSTA grid\n"
      "              lanes (--points targets; NAMES must be one circuit).\n"
      "              A grid range holds at least one 8-lane block, so\n"
      "              --units-per-range below 8 is raised to 8 for grids\n",
      argv0, argv0, argv0);
  std::exit(EXIT_FAILURE);
}

std::uint16_t parse_port(const std::string& s) {
  const unsigned long v = std::stoul(s);
  if (v > 65535)
    throw std::invalid_argument("port " + s + " outside [0, 65535]");
  return static_cast<std::uint16_t>(v);
}

std::string sibling_worker_bin(const char* argv0) {
  std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : self.substr(0, slash);
  return dir + "/statpipe-worker";
}

// Port announcement is operational output, not verbosity: without
// --spawn, externally started workers need the (possibly ephemeral) port
// even under --quiet.
void announce_port(const sp::dist::ClusterHandle& handle) {
  std::printf("statpipe-run: listening on port %u\n",
              static_cast<unsigned>(handle.port()));
  std::fflush(stdout);
}

// How this invocation submits one descriptor and gets its result back:
// ClusterHandle::submit on a fleet it hosts, or ServiceClient submit +
// wait against a running service (--connect).  The task functions below
// take either, so a task runs the same code in both modes.
using Submit =
    std::function<sp::dist::TaskResult(const sp::dist::RunDescriptor&)>;

// The --check-local verdict; its exit code is what CI gates on.
int verdict(bool equal, const char* what, const char* reference) {
  if (!equal) {
    std::printf("FAIL: distributed %s diverges from the %s\n", what,
                reference);
    return EXIT_FAILURE;
  }
  std::printf("distributed %s is bitwise-identical to the %s\n", what,
              reference);
  return EXIT_SUCCESS;
}

int run_mc(const sp::dist::RunDescriptor& desc, const Submit& submit,
           bool check_local) {
  std::printf("statpipe-run: mc, %s, %llu samples, seed %llu\n",
              desc.workload.c_str(),
              static_cast<unsigned long long>(desc.n_samples),
              static_cast<unsigned long long>(desc.seed));
  const sp::dist::TaskResult result = submit(desc);
  const sp::stats::Gaussian g = result.mc.tp_estimate();
  std::printf("T_P estimate: mu %.4f ps, sigma %.4f ps over %zu samples\n",
              g.mean, g.sigma, result.mc.tp_samples.size());
  if (!check_local) return EXIT_SUCCESS;
  return verdict(
      sp::dist::bitwise_equal(result, sp::dist::run_local_task(desc)),
      "result", "single-process run");
}

// Every candidate grid of the area-delay sweep goes through `submit` as
// one kSstaGrid request (dist::grid_characterizer).
int run_ssta_sweep(const sp::dist::RunDescriptor& desc, std::size_t points,
                   const Submit& submit, bool check_local) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  const sp::process::VariationSpec spec = sp::dist::descriptor_spec(desc);
  std::printf("statpipe-run: ssta-sweep, %s, %zu sweep points\n",
              desc.workload.c_str(), points);
  sp::opt::SweepOptions sw;
  sw.points = points;
  sw.sizer.output_load = desc.output_load;
  sw.grid = sp::dist::grid_characterizer(submit);
  const std::string name = sp::dist::split_workload_names(desc.workload)[0];
  sp::netlist::Netlist nl = sp::netlist::iscas_like(name);
  const auto dist_sweep = sp::opt::area_delay_sweep(nl, model, spec, sw);
  std::printf("area-delay curve: %zu feasible points, fastest D_stat "
              "%.4f ps\n",
              dist_sweep.curve.points().size(), dist_sweep.min_stat_delay);
  for (const auto& p : dist_sweep.curve.points())
    std::printf("  delay %.4f ps  area %.2f\n", p.delay, p.area);
  if (!check_local) return EXIT_SUCCESS;
  sp::opt::SweepOptions local_sw = sw;
  local_sw.grid = {};  // the single-process characterize_grid reference
  sp::netlist::Netlist nl2 = sp::netlist::iscas_like(name);
  const auto local_sweep =
      sp::opt::area_delay_sweep(nl2, model, spec, local_sw);
  return verdict(sp::opt::bitwise_equal(dist_sweep, local_sweep), "sweep",
                 "single-process characterize_grid run");
}

// --serve: host the persistent multi-tenant service.  The dist flags
// (--port, --key, --units-per-range, ...) configure the service; --spawn N
// forks N RESIDENT workers (statpipe-worker --serve) that outlive any
// number of client submissions.  Exits after --serve-requests N completed
// requests (0 = run until killed), winding the fleet down first.  Exit
// code reflects whether any request FAILED — individual request failures
// are reported to their clients and do not stop the service.
int run_serve(const sp::dist::ClusterOptions& cl, std::size_t serve_requests) {
  sp::dist::ClusterHandle handle(cl);
  std::printf("statpipe-run: serving on port %u\n",
              static_cast<unsigned>(handle.port()));
  std::fflush(stdout);
  handle.serve([&] {
    return serve_requests != 0 &&
           handle.stats().requests_completed >= serve_requests;
  });
  // Fleet wind-down: kShutdown ends resident workers (--serve exits on it,
  // not on disconnect), then reap with a grace period.
  handle.close();

  const sp::dist::ServiceStats st = handle.stats();
  std::printf(
      "service stats: %zu request(s) submitted, %zu completed (%zu "
      "failed), %zu session(s), %zu worker(s), cache %llu hit(s) / %llu "
      "miss(es) / %llu eviction(s)\n",
      st.requests_submitted, st.requests_completed, st.requests_failed,
      st.sessions_opened, st.workers_admitted,
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.cache_misses),
      static_cast<unsigned long long>(st.cache_evictions));
  for (const auto& [sid, units] : st.session_units)
    std::printf("  session %llu: %llu unit(s) assigned\n",
                static_cast<unsigned long long>(sid),
                static_cast<unsigned long long>(units));
  return st.requests_failed == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  sp::dist::RunDescriptor desc;
  sp::dist::ClusterOptions cl;
  cl.coordinator.verbose = true;
  cl.worker_bin = sibling_worker_bin(argv[0]);
  std::string task = "mc";
  std::size_t points = 8;
  bool check_local = false;
  std::string metrics_path;
  bool serve = false;
  std::size_t serve_requests = 0;
  std::string connect_to;  // HOST:PORT (or bare PORT -> 127.0.0.1)
  std::uint32_t priority = 0;
  desc.seed = 90210;
  desc.samples_per_shard = 256;
  if (const char* env_key = std::getenv("STATPIPE_WIRE_KEY"))
    cl.coordinator.auth_key = env_key;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage(argv[0]);
        return argv[++i];
      };
      if (arg == "--workload") desc.workload = next();
      else if (arg == "--task") task = next();
      else if (arg == "--points") points = std::stoull(next());
      else if (arg == "--samples") desc.n_samples = std::stoull(next());
      else if (arg == "--seed") desc.seed = std::stoull(next());
      else if (arg == "--samples-per-shard")
        desc.samples_per_shard = std::stoull(next());
      else if (arg == "--block-width") desc.block_width = std::stoull(next());
      else if (arg == "--sigma-systematic")
        desc.sigma_vth_systematic = std::stod(next());
      else if (arg == "--port") cl.coordinator.port = parse_port(next());
      else if (arg == "--host") cl.coordinator.bind_host = next();
      else if (arg == "--units-per-range" || arg == "--shards-per-range")
        cl.coordinator.units_per_range = std::stoull(next());
      else if (arg == "--max-attempts")
        cl.coordinator.max_attempts = std::stoi(next());
      else if (arg == "--timeout-ms")
        cl.coordinator.idle_timeout_ms = std::stoi(next());
      else if (arg == "--spawn") cl.spawn_workers = std::stoull(next());
      else if (arg == "--worker-bin") cl.worker_bin = next();
      else if (arg == "--key") cl.coordinator.auth_key = next();
      else if (arg == "--metrics") metrics_path = next();
      else if (arg == "--check-local") check_local = true;
      else if (arg == "--quiet") cl.coordinator.verbose = false;
      else if (arg == "--serve") serve = true;
      else if (arg == "--serve-requests") {
        serve = true;
        serve_requests = std::stoull(next());
      }
      else if (arg == "--connect") connect_to = next();
      else if (arg == "--priority") {
        priority = static_cast<std::uint32_t>(std::stoul(next()));
      }
      else usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-run: bad argument: %s\n", e.what());
    usage(argv[0]);
  }
  if (serve && !connect_to.empty()) {
    std::fprintf(stderr, "statpipe-run: --serve and --connect are "
                         "mutually exclusive\n");
    return EXIT_FAILURE;
  }
  if (!serve) {
    if (desc.workload.empty()) usage(argv[0]);
    if (task == "mc") {
      if (desc.n_samples == 0) usage(argv[0]);
    } else if (task == "ssta-sweep") {
      if (points < 2) {
        std::fprintf(stderr, "statpipe-run: --points must be >= 2\n");
        return EXIT_FAILURE;
      }
    } else {
      std::fprintf(stderr,
                   "statpipe-run: unknown task '%s' (this build knows mc, "
                   "ssta-sweep)\n",
                   task.c_str());
      return EXIT_FAILURE;
    }
  }

  // --metrics implies telemetry: counters/spans only accumulate while
  // enabled (STATPIPE_TRACE enables it at startup too).  Out-of-band by
  // design — results are bitwise-identical either way.
  if (!metrics_path.empty()) sp::obs::set_enabled(true);

  try {
    int rc = EXIT_FAILURE;
    if (serve) {
      rc = run_serve(cl, serve_requests);
    } else {
      // Validate the workload before any fleet or session exists.
      if (task == "mc")
        sp::dist::finalize_descriptor(desc);
      else if (sp::dist::split_workload_names(desc.workload).size() != 1)
        throw std::invalid_argument(
            "--task ssta-sweep needs exactly one circuit in --workload, "
            "got '" + desc.workload + "'");
      const auto run_task = [&](const Submit& submit) {
        return task == "mc"
                   ? run_mc(desc, submit, check_local)
                   : run_ssta_sweep(desc, points, submit, check_local);
      };
      if (!connect_to.empty()) {
        // HOST:PORT, or a bare PORT against localhost.
        std::string host = "127.0.0.1";
        std::string port_str = connect_to;
        const std::size_t colon = connect_to.rfind(':');
        if (colon != std::string::npos) {
          host = connect_to.substr(0, colon);
          port_str = connect_to.substr(colon + 1);
        }
        const std::uint16_t port = parse_port(port_str);
        if (port == 0)
          throw std::invalid_argument("--connect needs a nonzero port");
        sp::dist::ServiceClient client(host, port, cl.coordinator.auth_key);
        std::printf("statpipe-run: client of the service at %s:%u, session "
                    "%llu\n",
                    host.c_str(), static_cast<unsigned>(port),
                    static_cast<unsigned long long>(client.session()));
        rc = run_task([&](const sp::dist::RunDescriptor& d) {
          const std::uint64_t id = client.submit(d, priority);
          sp::dist::TaskResult r = client.wait(id);
          const auto& info = client.info(id);
          std::printf("service request %llu: cache %s, queue wait %.1f ms\n",
                      static_cast<unsigned long long>(id),
                      info.cache_hit ? "hit" : "miss", info.queue_wait_ms);
          return r;
        });
      } else {
        // One resident fleet for the whole task; a sweep's grids are one
        // request each, and their metrics add up into one block.
        sp::dist::ClusterHandle handle(cl);
        announce_port(handle);
        sp::dist::RunMetrics agg;
        std::size_t requests = 0;
        rc = run_task([&](const sp::dist::RunDescriptor& d) {
          sp::dist::RunMetrics m;
          sp::dist::TaskResult r = handle.submit(d, priority, &m);
          accumulate(agg, m);
          ++requests;
          return r;
        });
        handle.close();
        print_dist_metrics(agg, requests);
      }
    }
    if (!metrics_path.empty()) {
      sp::obs::write_metrics_json(metrics_path);
      std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "statpipe-run: %s\n", e.what());
    return EXIT_FAILURE;
  }
}
