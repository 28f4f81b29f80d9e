#include "dist/worker.h"

#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/hmac.h"
#include "dist/transport.h"
#include "obs/log.h"
#include "obs/telemetry.h"
#include "sim/thread_pool.h"

namespace statpipe::dist {

namespace {

// Structured logger (obs/log.h): `verbose` toggles the console sink only;
// with telemetry enabled every line also becomes a trace instant event.
void log_line(const WorkerOptions& opt, const std::string& msg) {
  obs::log_info("worker", msg, opt.verbose);
}

void send_error(Socket& s, const std::string& msg, const FrameAuth& auth,
                std::uint64_t session, std::uint64_t rid) {
  ByteWriter w;
  w.str(msg);
  send_frame(s, MsgType::kError, w.bytes(), auth, session, rid);
}

}  // namespace

WorkloadFactory default_workload_factory() {
  return [](const RunDescriptor& desc) { return make_unit_runner(desc); };
}

std::size_t run_worker(const WorkerOptions& opt, const WorkloadFactory& make,
                       bool* shutdown_received) {
  if (shutdown_received != nullptr) *shutdown_received = false;
  const FrameAuth auth = FrameAuth::from_passphrase(opt.auth_key);
  Socket sock = connect_to(opt.host, opt.port, opt.connect_retry_ms);
  {
    ByteWriter hello;
    hello.u16(kWireVersion);
    hello.u64(sim::ThreadPool::shared().thread_count());
    send_frame(sock, MsgType::kHello, hello.bytes(), auth);
  }
  // The welcome read is bounded: a worker admitted normally is granted its
  // session within milliseconds, so a long silence means the service is
  // gone — better to fail loudly than sit forever.
  sock.set_recv_timeout_ms(60000);
  std::optional<Frame> welcome = recv_frame(sock, auth);
  sock.set_recv_timeout_ms(0);
  if (welcome && welcome->type == MsgType::kShutdown) {
    // Run already complete (we were a backlogged straggler the service is
    // politely dismissing): clean exit.
    log_line(opt, "run already complete; exiting with no work");
    if (shutdown_received != nullptr) *shutdown_received = true;
    return 0;
  }
  if (!welcome || welcome->type != MsgType::kWelcome)
    throw std::runtime_error("dist: service sent no welcome");
  std::uint64_t session = 0;
  {
    ByteReader r(welcome->payload);
    session = r.u64();
    r.expect_done();
  }
  log_line(opt, "admitted as session " + std::to_string(session));

  // Resident state: one runner per request this worker has been set up
  // for.  A worker serves any number of descriptors over one connection —
  // runners live until the service releases them (kRelease) or the
  // session ends.
  std::map<std::uint64_t, UnitRangeRunner> runners;
  std::size_t completed = 0;
  for (;;) {
    std::optional<Frame> f = recv_frame(sock, auth);
    if (!f) {
      log_line(opt, "service closed; exiting");
      return completed;
    }
    if (f->type == MsgType::kShutdown) {
      log_line(opt, "shutdown after " + std::to_string(completed) +
                        " range(s)");
      if (shutdown_received != nullptr) *shutdown_received = true;
      return completed;
    }
    // Everything past the handshake is scoped to our session; a frame
    // bound to another one means a confused (or hostile) peer.
    if (f->session_id != session)
      throw std::runtime_error("dist: frame for session " +
                               std::to_string(f->session_id) +
                               ", this worker is session " +
                               std::to_string(session));
    const std::uint64_t rid = f->request_id;
    if (f->type == MsgType::kSetup) {
      RunDescriptor desc;
      {
        ByteReader r(f->payload);
        desc = read_run_descriptor(r);
        r.expect_done();
      }
      try {
        runners[rid] = make(desc);
        log_line(opt, "setup request " + std::to_string(rid) + ": " +
                          task_kind_name(desc.task_kind) + " workload '" +
                          desc.workload + "', " +
                          std::to_string(task_unit_count(desc)) + " units");
      } catch (const std::exception& e) {
        // A workload this worker cannot rebuild and verify: report and end
        // the session — a worker that cannot prove it holds the exact
        // workload must not contribute results, to this request or any
        // later one routed here.
        log_line(opt, std::string("workload rejected: ") + e.what());
        send_error(sock, e.what(), auth, session, rid);
        return completed;
      }
      continue;
    }
    if (f->type == MsgType::kRelease) {
      runners.erase(rid);
      log_line(opt, "released request " + std::to_string(rid) + " (" +
                        std::to_string(runners.size()) + " resident)");
      continue;
    }
    if (f->type != MsgType::kAssign)
      throw std::runtime_error("dist: unexpected frame type " +
                               std::to_string(static_cast<int>(f->type)));
    auto rit = runners.find(rid);
    if (rit == runners.end())
      throw std::runtime_error("dist: assignment for request " +
                               std::to_string(rid) + " with no setup");
    ByteReader r(f->payload);
    const std::uint64_t begin = r.u64();
    const std::uint64_t end = r.u64();
    r.expect_done();
    log_line(opt, "running units [" + std::to_string(begin) + ", " +
                      std::to_string(end) + ") of request " +
                      std::to_string(rid));
    static const obs::SpanId kRangeSpan("dist.worker.range");
    obs::ScopedSpan range_span(kRangeSpan, static_cast<std::int64_t>(begin));
    std::uint64_t emitted = 0;
    try {
      // Stream each unit the moment it completes (ascending — the runner's
      // contract): the service stages the frames and commits the range on
      // kRangeDone below, so memory on both ends is bounded by the
      // runner's chunk, not the range.
      rit->second(
          begin, end,
          [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
            ByteWriter out;
            out.u64(unit);
            out.append(payload);
            send_frame(sock, MsgType::kResult, out.bytes(), auth, session,
                       rid);
            emitted += 1;
          });
    } catch (const std::exception& e) {
      // An engine failure on this range: report and bail out — the service
      // discards whatever was streamed and re-queues the range for a
      // healthy worker.
      log_line(opt, std::string("range failed: ") + e.what());
      send_error(sock, e.what(), auth, session, rid);
      return completed;
    }
    ByteWriter done;
    done.u64(begin);
    done.u64(end);
    done.u64(emitted);
    send_frame(sock, MsgType::kRangeDone, done.bytes(), auth, session, rid);
    completed += 1;
    static obs::Counter c_ranges("dist.worker.ranges");
    c_ranges.add();
    static obs::Counter c_units("dist.worker.units");
    c_units.add(emitted);
  }
}

}  // namespace statpipe::dist
