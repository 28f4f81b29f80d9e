#include "dist/service.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "obs/telemetry.h"

namespace statpipe::dist {

namespace {

void log_line(const ServiceOptions& opt, const std::string& msg) {
  obs::log_info("service", msg, opt.verbose);
}

const obs::SpanId& span_range() {
  static const obs::SpanId s("dist.range");
  return s;
}

const obs::SpanId& span_request() {
  static const obs::SpanId s("dist.service.request");
  return s;
}

std::string range_str(const SchedTask& t) {
  return "[" + std::to_string(t.begin) + ", " + std::to_string(t.end) + ")";
}

}  // namespace

Service::Service(ServiceOptions opt)
    : opt_(std::move(opt)),
      auth_(FrameAuth::from_passphrase(opt_.auth_key)),
      listener_(opt_.bind_host, opt_.port),
      cache_(opt_.cache_max_bytes) {
  if (opt_.max_attempts < 1)
    throw std::invalid_argument("dist: max_attempts must be >= 1");
  log_line(opt_, "service listening on " + opt_.bind_host + ":" +
                     std::to_string(listener_.port()) +
                     (auth_.enabled ? ", authenticated wire" : ""));
}

Service::~Service() = default;

std::uint64_t Service::submit_local(const RunDescriptor& desc,
                                    std::uint32_t priority) {
  return admit_request(desc, priority, /*client_session=*/0, /*client_id=*/0);
}

std::uint64_t Service::admit_request(RunDescriptor desc,
                                     std::uint32_t priority,
                                     std::uint64_t client_session,
                                     std::uint64_t client_id) {
  // finalize_descriptor always sets a nonzero hash (FNV of a non-empty
  // stage list), and hash == 0 would additionally disable the worker-side
  // workload verification — so a zero hash means an unfinalized
  // descriptor, regardless of what seed the user picked.
  if (desc.netlist_hash == 0)
    throw std::invalid_argument(
        "dist: descriptor not finalized (netlist_hash unset; call "
        "finalize_descriptor)");
  // Validate the plan inputs with the task layer's own planner: throws on
  // zero samples / an empty grid, and gives us the unit count ranges are
  // cut from.
  const std::size_t n_units = task_unit_count(desc);
  // units_per_range is a service-wide knob.  A LOCAL submission (the
  // ClusterHandle path) keeps the strict v3 contract — an unsatisfiable
  // range size is a caller configuration error, rejected up front; a
  // REMOTE request merely smaller than the chunk clamps to its own size.
  if (client_session == 0 && opt_.units_per_range > n_units)
    throw std::invalid_argument(
        "dist: units_per_range " + std::to_string(opt_.units_per_range) +
        " exceeds the plan's " + std::to_string(n_units) + " unit(s)");
  // With streaming each kResult frame carries ONE unit, so the frame cap
  // bounds the unit payload, not the range.  Only a single unit too big
  // for a frame is rejected, up front rather than after a retry cascade.
  if (task_unit_wire_bytes(desc) + 64 > kMaxFramePayload)
    throw std::invalid_argument(
        "dist: samples_per_shard " + std::to_string(desc.samples_per_shard) +
        " makes a single shard's result exceed the frame payload cap; "
        "use smaller shards");
  // Fleet-poisoning guard for remote submissions: a descriptor whose
  // workload cannot be built (unknown circuit, hash mismatch, bad grid)
  // would kill every worker it reaches via kError-and-exit.  Building it
  // once service-side turns that into a submit-time rejection.  Local
  // submissions skip this (the v3 coordinator never built workloads, and
  // tests drive deliberately-unbuildable descriptors through it).
  if (client_session != 0) make_unit_runner(desc);

  const std::uint64_t rid = next_rid_++;
  Request rq;
  rq.rid = rid;
  rq.client_session = client_session;
  rq.client_id = client_id;
  rq.desc = std::move(desc);
  rq.priority = priority;
  rq.n_units = n_units;
  {
    ByteWriter w;
    write_run_descriptor(w, rq.desc);
    rq.desc_bytes = w.take();
  }
  rq.cache_key = ResultCache::key_for(rq.desc_bytes);
  rq.submit_ns = obs::now_ns();
  rq.span_t0 = obs::enabled() ? rq.submit_ns : 0;
  rq.metrics.units = n_units;
  ++stats_.requests_submitted;
  static obs::Counter c_requests("dist.service.requests");
  c_requests.add();

  // Content-addressed cache: the canonical descriptor bytes (root_seed
  // included) are the whole identity of a run, so a hit IS the result.
  const std::vector<std::uint8_t>* hit =
      opt_.cache_max_bytes > 0 ? cache_.find(rq.cache_key) : nullptr;
  if (hit != nullptr) {
    rq.result_blob = *hit;
    rq.metrics.cache_hits = 1;
    log_line(opt_, "request " + std::to_string(rid) + " served from cache (" +
                       std::to_string(rq.result_blob.size()) + " bytes)");
    auto [it, ok] = requests_.emplace(rid, std::move(rq));
    finish_request(it->second);
    return rid;
  }
  if (opt_.cache_max_bytes > 0) rq.metrics.cache_misses = 1;

  // At least the kind's smallest range (a whole lane block for a grid),
  // at most the whole plan.
  const std::size_t per = std::min(
      std::max(opt_.units_per_range != 0 ? opt_.units_per_range : n_units / 8,
               task_min_range_units(rq.desc)),
      n_units);
  sched_.add_request(rid, client_session, priority);
  for (std::size_t b = 0; b < n_units; b += per) {
    sched_.enqueue({rid, b, std::min(b + per, n_units), 0});
    ++rq.metrics.ranges;
  }
  log_line(opt_, "request " + std::to_string(rid) + " (session " +
                     std::to_string(client_session) + ", " +
                     task_kind_name(rq.desc.task_kind) + ", priority " +
                     std::to_string(priority) + "): " +
                     std::to_string(n_units) + " units in " +
                     std::to_string(rq.metrics.ranges) + " ranges");
  requests_.emplace(rid, std::move(rq));
  return rid;
}

void Service::finish_request(Request& rq) {
  rq.status = Request::Status::kDone;
  if (rq.result_blob.empty()) {
    // Encode the fold into the canonical blob form — the cache entry, the
    // client wire payload and (via the byte-identity round-trip) the local
    // result are all this one byte string.
    rq.result_blob = encode_result(rq.acc);
    if (opt_.cache_max_bytes > 0) cache_.insert(rq.cache_key, rq.result_blob);
  }
  const std::int64_t now = obs::now_ns();
  rq.metrics.wall_ms = static_cast<double>(now - rq.submit_ns) / 1e6;
  rq.metrics.workers_admitted = stats_.workers_admitted;
  if (rq.span_t0 > 0 && obs::enabled())
    obs::record_span(span_request(), rq.span_t0, now,
                     static_cast<std::int64_t>(rq.rid));
  ++stats_.requests_completed;
  log_line(opt_, "request " + std::to_string(rq.rid) + " done (" +
                     std::to_string(rq.n_units) + " units, " +
                     (rq.metrics.cache_hits != 0 ? "cache hit" : "computed") +
                     ")");
  release_request(rq.rid);
  if (rq.client_session != 0) {
    for (Peer& p : peers_) {
      if (p.kind != Peer::Kind::kClient || p.session != rq.client_session ||
          !p.sock.valid())
        continue;
      ByteWriter w;
      w.u16(static_cast<std::uint16_t>(rq.desc.task_kind));
      w.u8(rq.metrics.cache_hits != 0 ? 1 : 0);
      w.u64(static_cast<std::uint64_t>(rq.metrics.queue_wait_ms * 1e6));
      w.append(rq.result_blob);
      try {
        send_frame(p.sock, MsgType::kRequestDone, w.bytes(), auth_, p.session,
                   rq.client_id);
      } catch (const std::exception& e) {
        log_line(opt_, "request " + std::to_string(rq.rid) +
                           " result undeliverable: " + e.what());
        p.sock.close();
      }
      break;
    }
    requests_.erase(rq.rid);  // remote request state is delivered-or-gone
  }
}

void Service::fail_request(std::uint64_t rid, const std::string& why) {
  auto it = requests_.find(rid);
  if (it == requests_.end() || it->second.status != Request::Status::kActive)
    return;
  Request& rq = it->second;
  rq.status = Request::Status::kFailed;
  rq.error = why;
  rq.metrics.wall_ms =
      static_cast<double>(obs::now_ns() - rq.submit_ns) / 1e6;
  rq.metrics.workers_admitted = stats_.workers_admitted;
  sched_.remove_request(rid);
  ++stats_.requests_completed;
  ++stats_.requests_failed;
  log_line(opt_, "request " + std::to_string(rid) + " FAILED: " + why);
  release_request(rid);
  if (rq.client_session != 0) {
    for (Peer& p : peers_) {
      if (p.kind != Peer::Kind::kClient || p.session != rq.client_session ||
          !p.sock.valid())
        continue;
      ByteWriter w;
      w.str(why);
      try {
        send_frame(p.sock, MsgType::kError, w.bytes(), auth_, p.session,
                   rq.client_id);
      } catch (const std::exception&) {
        p.sock.close();
      }
      break;
    }
    requests_.erase(rid);
  }
}

void Service::release_request(std::uint64_t rid) {
  for (Peer& p : peers_) {
    if (p.kind != Peer::Kind::kWorker || !p.sock.valid()) continue;
    if (p.setup_rids.erase(rid) == 0) continue;
    try {
      send_frame(p.sock, MsgType::kRelease, {}, auth_, p.session, rid);
    } catch (const std::exception&) {
      p.sock.close();
    }
  }
}

void Service::admit_peer() {
  Socket s = listener_.accept();
  // The hello is read synchronously — it is the first thing a real peer
  // writes — but under a timeout: a peer that connects and stays silent (a
  // port scanner, a health probe on a 0.0.0.0 bind) must not wedge the
  // event loop.
  std::optional<Frame> hello;
  try {
    s.set_recv_timeout_ms(5000);
    hello = recv_frame(s, auth_);
    // From here on the read deadline bounds every read from this peer —
    // see ServiceOptions::read_deadline_ms for the rationale.
    if (opt_.read_deadline_ms > 0)
      s.set_read_deadline_ms(opt_.read_deadline_ms);
    else
      s.set_recv_timeout_ms(opt_.idle_timeout_ms > 0 ? opt_.idle_timeout_ms
                                                     : 0);
  } catch (const std::exception& e) {
    log_line(opt_, std::string("rejecting connection: ") + e.what());
    return;
  }
  if (!hello || (hello->type != MsgType::kHello &&
                 hello->type != MsgType::kClientHello)) {
    log_line(opt_, "rejecting connection: no hello");
    return;
  }
  Peer p;
  p.sock = std::move(s);
  p.kind = hello->type == MsgType::kHello ? Peer::Kind::kWorker
                                          : Peer::Kind::kClient;
  p.session = next_session_++;
  {
    ByteWriter w;
    w.u64(p.session);
    try {
      send_frame(p.sock, MsgType::kWelcome, w.bytes(), auth_, p.session, 0);
    } catch (const std::exception& e) {
      log_line(opt_, std::string("welcome failed: ") + e.what());
      return;
    }
  }
  ++stats_.sessions_opened;
  static obs::Counter c_sessions("dist.service.sessions");
  c_sessions.add();
  if (p.kind == Peer::Kind::kWorker) {
    ++stats_.workers_admitted;
    static obs::Counter c_admitted("dist.workers_admitted");
    c_admitted.add();
    try_assign(p);
    log_line(opt_, "worker connected as session " +
                       std::to_string(p.session) + " (" +
                       std::to_string(stats_.workers_admitted) + " admitted)");
  } else {
    log_line(opt_, "client connected as session " + std::to_string(p.session));
  }
  peers_.push_back(std::move(p));
}

void Service::try_assign(Peer& w) {
  if (!w.sock.valid() || w.kind != Peer::Kind::kWorker || w.has_range) return;
  std::optional<SchedTask> t = sched_.next();
  if (!t) return;
  Request& rq = requests_.at(t->rid);
  t->attempts += 1;
  try {
    // Lazy per-(worker, request) setup: the descriptor travels once per
    // worker, right before that worker's first range of the request.
    if (w.setup_rids.count(t->rid) == 0) {
      send_frame(w.sock, MsgType::kSetup, rq.desc_bytes, auth_, w.session,
                 t->rid);
      w.setup_rids.insert(t->rid);
    }
    ByteWriter out;
    out.u64(t->begin);
    out.u64(t->end);
    send_frame(w.sock, MsgType::kAssign, out.bytes(), auth_, w.session,
               t->rid);
  } catch (const std::exception&) {
    // Undo fully: the attempt never reached a worker, so it must not burn
    // the range's attempt budget.  Closing the socket marks the worker for
    // removal at the top of the next event-loop iteration.
    t->attempts -= 1;
    sched_.requeue_front(*t);
    w.sock.close();
    return;
  }
  w.has_range = true;
  w.task = *t;
  w.staged.clear();
  w.assign_ns = obs::enabled() ? obs::now_ns() : 0;
  ++rq.metrics.assigns;
  if (rq.metrics.assigns == 1)
    rq.metrics.queue_wait_ms =
        static_cast<double>(obs::now_ns() - rq.submit_ns) / 1e6;
  if (t->attempts > 1) ++rq.metrics.retries;
  static obs::Counter c_assigns("dist.assigns");
  c_assigns.add();
  log_line(opt_, "assigned units " + range_str(*t) + " of request " +
                     std::to_string(t->rid) + " to session " +
                     std::to_string(w.session) + " attempt " +
                     std::to_string(t->attempts));
}

void Service::requeue(Peer& w, const std::string& why) {
  if (w.has_range) {
    // The worker forfeits the whole range: staged units are part of an
    // uncommitted stream and are discarded with it — a partially streamed
    // range never contributes to the fold (docs/DETERMINISM.md).
    const std::size_t staged = w.staged.size();
    log_line(opt_, "range " + range_str(w.task) + " of request " +
                       std::to_string(w.task.rid) + " lost (" +
                       std::to_string(staged) +
                       " staged unit(s) discarded): " + why);
    w.staged.clear();
    const SchedTask task = w.task;
    w.has_range = false;
    auto rit = requests_.find(task.rid);
    if (rit != requests_.end() &&
        rit->second.status == Request::Status::kActive) {
      Request& rq = rit->second;
      ++rq.metrics.forfeits;
      rq.metrics.units_discarded += staged;
      rq.staged_now -= staged;
      static obs::Counter c_requeues("dist.requeues");
      c_requeues.add();
      static obs::Counter c_discarded("dist.units_discarded");
      c_discarded.add(staged);
      if (task.attempts >= opt_.max_attempts)
        // Exhausting the budget fails the REQUEST, never the service.
        fail_request(task.rid,
                     "dist: unit range " + range_str(task) + " failed " +
                         std::to_string(task.attempts) +
                         " attempt(s); last: " + why);
      else
        sched_.requeue_front(task);
    }
  }
  w.sock.close();
}

void Service::handle_unit(Peer& w, Request& rq, const Frame& f) {
  ByteReader r(f.payload);
  const std::uint64_t unit = r.u64();
  if (unit < w.task.begin || unit >= w.task.end)
    throw std::runtime_error("unit " + std::to_string(unit) +
                             " outside assigned range " + range_str(w.task));
  if (w.staged.count(unit) != 0)
    throw std::runtime_error("duplicate unit " + std::to_string(unit) +
                             " in result stream");
  // Decode on receipt, into the worker's staging area: a corrupt payload
  // forfeits the range within its attempt budget instead of failing the
  // final fold, and nothing touches the committed fold until kRangeDone.
  TaskResult part = decode_unit(rq.desc.task_kind, r);
  r.expect_done();
  w.staged.emplace(unit, std::move(part));
  ++rq.staged_now;
  rq.metrics.peak_staged_units =
      std::max(rq.metrics.peak_staged_units, rq.staged_now);
  static obs::Counter c_staged("dist.units_staged");
  c_staged.add();
}

void Service::handle_range_done(Peer& w, Request& rq, const Frame& f) {
  ByteReader r(f.payload);
  const std::uint64_t begin = r.u64();
  const std::uint64_t end = r.u64();
  const std::uint64_t count = r.u64();
  r.expect_done();
  if (begin != w.task.begin || end != w.task.end)
    throw std::runtime_error("range-done echoes [" + std::to_string(begin) +
                             ", " + std::to_string(end) +
                             ") for assignment " + range_str(w.task));
  if (count != end - begin || w.staged.size() != end - begin)
    throw std::runtime_error(
        "range-done claims " + std::to_string(count) + " unit(s), " +
        std::to_string(w.staged.size()) + " staged, for a range of " +
        std::to_string(end - begin));
  // Commit: every unit of the range is present exactly once (membership
  // and duplicates were enforced at staging, so a full-size staging map
  // IS the whole range).  The units enter the pending map and the
  // contiguous prefix folds immediately.
  for (auto& [unit, part] : w.staged) {
    if (unit < rq.folded_prefix || rq.pending.count(unit) != 0)
      throw std::runtime_error("unit " + std::to_string(unit) +
                               " committed twice");
    rq.pending.emplace(unit, std::move(part));
  }
  w.staged.clear();
  advance_fold(rq);
  w.has_range = false;
  rq.staged_now -= end - begin;
  ++rq.metrics.commits;
  static obs::Counter c_commits("dist.commits");
  c_commits.add();
  static obs::Counter c_units("dist.units_committed");
  c_units.add(end - begin);
  // Assign→commit latency for this range, closed across call sites via
  // record_span (the RAII form cannot straddle the event loop).
  if (w.assign_ns > 0 && obs::enabled())
    obs::record_span(span_range(), w.assign_ns, obs::now_ns(),
                     static_cast<std::int64_t>(begin));
  w.assign_ns = 0;
  log_line(opt_, "range [" + std::to_string(begin) + ", " +
                     std::to_string(end) + ") of request " +
                     std::to_string(rq.rid) + " committed; " +
                     std::to_string(rq.done_units()) + "/" +
                     std::to_string(rq.n_units) + " units");
}

void Service::advance_fold(Request& rq) {
  // Fold in ascending unit order — for Monte-Carlo the identical left fold
  // GateLevelMonteCarlo::run applies locally — consuming the pending map
  // as long as it extends the contiguous prefix.  Memory stays bounded by
  // the out-of-order window: a committed range can only wait while some
  // earlier range is still in flight.
  auto it = rq.pending.begin();
  while (it != rq.pending.end() && it->first == rq.folded_prefix) {
    fold_unit(rq.acc, rq.folded_prefix, std::move(it->second));
    it = rq.pending.erase(it);
    ++rq.folded_prefix;
  }
}

bool Service::service_worker(Peer& w) {
  std::optional<Frame> f;
  try {
    f = recv_frame(w.sock, auth_);
  } catch (const std::exception& e) {
    requeue(w, e.what());
    return false;
  }
  if (!f) {
    requeue(w, "worker disconnected");
    return false;
  }
  switch (f->type) {
    case MsgType::kResult:
    case MsgType::kRangeDone:
      try {
        if (!w.has_range)
          throw std::runtime_error(
              f->type == MsgType::kResult
                  ? "result frame from a worker with no assignment"
                  : "range-done frame from a worker with no assignment");
        // Session/request binding: a worker frame must be scoped to this
        // connection's session and its in-flight request — a replayed or
        // cross-wired frame forfeits the range, MAC or no MAC.
        if (f->session_id != w.session || f->request_id != w.task.rid)
          throw std::runtime_error(
              "frame scoped to session " + std::to_string(f->session_id) +
              " request " + std::to_string(f->request_id) +
              ", expected session " + std::to_string(w.session) +
              " request " + std::to_string(w.task.rid));
        auto rit = requests_.find(w.task.rid);
        const bool active = rit != requests_.end() &&
                            rit->second.status == Request::Status::kActive;
        if (f->type == MsgType::kResult) {
          if (active) handle_unit(w, rit->second, *f);
          // A range of a request that already failed is draining out:
          // discard its stream without charging anyone.
        } else if (active) {
          handle_range_done(w, rit->second, *f);
          if (rit->second.done_units() == rit->second.n_units)
            finish_request(rit->second);  // may erase the request
        } else {
          w.staged.clear();
          w.has_range = false;
        }
      } catch (const std::exception& e) {
        // std::exception, not just runtime_error: a corrupt frame can also
        // surface as length_error/bad_alloc from the deserializer, and any
        // of those must forfeit the range (bounded by its attempt budget),
        // not abort the service.
        requeue(w, e.what());
        return false;
      }
      if (!w.has_range) try_assign(w);
      return true;
    case MsgType::kError: {
      ByteReader r(f->payload);
      requeue(w, "worker error: " + r.str());
      return false;
    }
    default:
      requeue(w, "unexpected frame type " +
                     std::to_string(static_cast<int>(f->type)));
      return false;
  }
}

bool Service::service_client(Peer& p) {
  std::optional<Frame> f;
  try {
    f = recv_frame(p.sock, auth_);
  } catch (const std::exception& e) {
    log_line(opt_, "client session " + std::to_string(p.session) +
                       " dropped: " + e.what());
    p.sock.close();
    return false;
  }
  if (!f) {
    log_line(opt_, "client session " + std::to_string(p.session) +
                       " disconnected");
    p.sock.close();
    return false;
  }
  auto reject = [&](std::uint64_t request_id, const std::string& why) {
    log_line(opt_, "client session " + std::to_string(p.session) +
                       " rejected: " + why);
    ByteWriter w;
    w.str(why);
    try {
      send_frame(p.sock, MsgType::kError, w.bytes(), auth_, p.session,
                 request_id);
    } catch (const std::exception&) {
    }
    p.sock.close();
    return false;
  };
  if (f->type != MsgType::kSubmit)
    return reject(f->request_id,
                  "dist: unexpected frame type " +
                      std::to_string(static_cast<int>(f->type)) +
                      " from a client session");
  // The replay defense: every client frame must carry the session id THIS
  // connection was welcomed with.  A frame captured from another session
  // — bit-identical MAC and all — fails here, because the id it is bound
  // to was granted to a different connection.
  if (f->session_id != p.session)
    return reject(f->request_id,
                  "dist: unknown or stale session id " +
                      std::to_string(f->session_id) + " (this connection is "
                      "session " + std::to_string(p.session) + ")");
  if (!p.client_ids.insert(f->request_id).second)
    return reject(f->request_id,
                  "dist: duplicate request id " +
                      std::to_string(f->request_id) + " in session " +
                      std::to_string(p.session));
  try {
    ByteReader r(f->payload);
    const std::uint32_t priority = r.u32();
    RunDescriptor desc = read_run_descriptor(r);
    r.expect_done();
    admit_request(std::move(desc), priority, p.session, f->request_id);
  } catch (const std::exception& e) {
    return reject(f->request_id, e.what());
  }
  return true;
}

bool Service::outstanding_requests() const {
  for (const auto& [rid, rq] : requests_)
    if (rq.status == Request::Status::kActive) return true;
  return false;
}

void Service::run(const std::function<bool()>& until) {
  while (!until()) {
    // Drop peers whose sockets died outside their service_* call (e.g. a
    // failed kAssign send) — a closed-socket entry must not linger as a
    // zombie the assignment loop keeps visiting.
    std::erase_if(peers_, [](const Peer& p) { return !p.sock.valid(); });
    // Top up idle workers first: work may have been enqueued between
    // run() calls (ClusterHandle resubmits against an already-connected
    // fleet) or freed by the previous iteration's events.
    for (Peer& p : peers_) try_assign(p);
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const Peer& p : peers_) fds.push_back({p.sock.fd(), POLLIN, 0});
    const int timeout = opt_.idle_timeout_ms > 0 ? opt_.idle_timeout_ms : -1;
    const int rc = ::poll(fds.data(), fds.size(), timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("dist: poll failed");
    }
    if (rc == 0) {
      // Idle timeout: no event at all for idle_timeout_ms.  Every
      // outstanding request fails with the progress it had — the service
      // itself keeps serving (a later client deserves a live fleet).
      std::vector<std::uint64_t> stuck;
      for (const auto& [rid, rq] : requests_)
        if (rq.status == Request::Status::kActive) stuck.push_back(rid);
      for (std::uint64_t rid : stuck) {
        const Request& rq = requests_.at(rid);
        fail_request(rid, "dist: no worker progress for " +
                              std::to_string(opt_.idle_timeout_ms) + " ms (" +
                              std::to_string(rq.done_units()) + "/" +
                              std::to_string(rq.n_units) + " units done)");
      }
      continue;
    }
    if (fds[0].revents & POLLIN) admit_peer();
    // Service in reverse so erasing a dead peer never shifts an entry we
    // have yet to visit (fds[i+1] belongs to peers_[i] of this snapshot;
    // admit_peer only appends).
    for (std::size_t i = peers_.size(); i-- > 0;) {
      if (i + 1 >= fds.size()) continue;  // connected this iteration
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const bool keep = peers_[i].kind == Peer::Kind::kWorker
                            ? service_worker(peers_[i])
                            : service_client(peers_[i]);
      if (!keep)
        peers_.erase(peers_.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

bool Service::local_done(std::uint64_t rid) const {
  auto it = requests_.find(rid);
  return it == requests_.end() ||
         it->second.status != Request::Status::kActive;
}

TaskResult Service::take_local_result(std::uint64_t rid) {
  auto it = requests_.find(rid);
  if (it == requests_.end())
    throw std::logic_error("dist: unknown or already-taken request " +
                           std::to_string(rid));
  Request& rq = it->second;
  if (rq.status == Request::Status::kActive)
    throw std::logic_error("dist: request " + std::to_string(rid) +
                           " still running");
  if (rq.status == Request::Status::kFailed) {
    const std::string err = rq.error;
    requests_.erase(it);
    throw std::runtime_error(err);
  }
  // Decode the canonical blob — decode ∘ encode is byte identity
  // (tested), so this is bitwise the fold (or the cached copy of an
  // identical earlier fold).
  TaskResult out = decode_result(rq.desc.task_kind, rq.result_blob);
  requests_.erase(it);
  return out;
}

const RunMetrics& Service::local_metrics(std::uint64_t rid) const {
  auto it = requests_.find(rid);
  if (it == requests_.end())
    throw std::logic_error("dist: unknown or already-taken request " +
                           std::to_string(rid));
  return it->second.metrics;
}

void Service::shutdown_workers() {
  for (Peer& p : peers_) {
    if (p.kind != Peer::Kind::kWorker || !p.sock.valid()) continue;
    try {
      send_frame(p.sock, MsgType::kShutdown, {}, auth_, p.session, 0);
    } catch (const std::exception&) {
      // Worker already gone; shutdown is best-effort.
    }
  }
}

void Service::drain_backlog() {
  for (;;) {
    pollfd lfd{listener_.fd(), POLLIN, 0};
    const int rc = ::poll(&lfd, 1, 0);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0 || (lfd.revents & POLLIN) == 0) break;
    try {
      Socket s = listener_.accept();
      s.set_recv_timeout_ms(5000);
      if (recv_frame(s, auth_))  // their hello
        send_frame(s, MsgType::kShutdown, {}, auth_);
    } catch (const std::exception& e) {
      log_line(opt_, std::string("backlog drain: ") + e.what());
    }
  }
}

ServiceStats Service::stats() const {
  ServiceStats s = stats_;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_evictions = cache_.evictions();
  for (std::uint64_t session : sched_.sessions())
    s.session_units.emplace_back(session, sched_.session_units(session));
  return s;
}

// ---------------------------------------------------------- ServiceClient

ServiceClient::ServiceClient(const std::string& host, std::uint16_t port,
                             const std::string& auth_key,
                             int connect_retry_ms)
    : sock_(connect_to(host, port, connect_retry_ms)),
      auth_(FrameAuth::from_passphrase(auth_key)) {
  ByteWriter w;
  w.u16(kWireVersion);
  send_frame(sock_, MsgType::kClientHello, w.bytes(), auth_);
  sock_.set_recv_timeout_ms(60000);
  std::optional<Frame> f = recv_frame(sock_, auth_);
  if (!f || f->type != MsgType::kWelcome)
    throw std::runtime_error("dist: service sent no welcome");
  ByteReader r(f->payload);
  session_ = r.u64();
  r.expect_done();
  sock_.set_recv_timeout_ms(0);
}

std::uint64_t ServiceClient::submit(const RunDescriptor& desc,
                                    std::uint32_t priority) {
  const std::uint64_t id = next_id_++;
  ByteWriter w;
  w.u32(priority);
  write_run_descriptor(w, desc);
  send_frame(sock_, MsgType::kSubmit, w.bytes(), auth_, session_, id);
  kinds_.emplace(id, desc.task_kind);
  return id;
}

TaskResult ServiceClient::wait(std::uint64_t id) {
  for (;;) {
    if (auto it = done_.find(id); it != done_.end()) {
      TaskResult r = std::move(it->second.first);
      done_.erase(it);
      return r;
    }
    if (auto it = failed_.find(id); it != failed_.end())
      throw std::runtime_error(it->second);
    std::optional<Frame> f = recv_frame(sock_, auth_);
    if (!f)
      throw std::runtime_error(
          "dist: service closed the connection before the result");
    if (f->session_id != session_)
      throw std::runtime_error("dist: frame for a different session");
    if (f->type == MsgType::kError) {
      ByteReader r(f->payload);
      failed_.emplace(f->request_id, r.str());
      continue;
    }
    if (f->type != MsgType::kRequestDone)
      throw std::runtime_error("dist: unexpected frame type " +
                               std::to_string(static_cast<int>(f->type)) +
                               " from the service");
    auto kit = kinds_.find(f->request_id);
    if (kit == kinds_.end())
      throw std::runtime_error("dist: result for request " +
                               std::to_string(f->request_id) +
                               ", which this session never submitted");
    ByteReader r(f->payload);
    const std::uint16_t kind = r.u16();
    if (kind != static_cast<std::uint16_t>(kit->second))
      throw std::runtime_error(
          "dist: service answered request " + std::to_string(f->request_id) +
          " with task kind " + std::to_string(kind) + ", submitted as " +
          std::to_string(static_cast<std::uint16_t>(kit->second)));
    RequestInfo info;
    info.cache_hit = r.u8() != 0;
    info.queue_wait_ms = static_cast<double>(r.u64()) / 1e6;
    done_.emplace(f->request_id,
                  std::make_pair(decode_result(kit->second, r.rest()), info));
    infos_[f->request_id] = info;
  }
}

const ServiceClient::RequestInfo& ServiceClient::info(std::uint64_t id) const {
  return infos_.at(id);
}

}  // namespace statpipe::dist
