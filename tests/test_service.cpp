// Persistent multi-tenant service tests (wire v4): the scheduler's
// priority/fair-share/FIFO policy and its determinism, the
// content-addressed result cache (key sensitivity down to a single f64
// bit, deterministic LRU eviction, hit/miss accounting), the v4
// adversarial surface (header truncation and per-byte mutation fuzz over
// the new session/request fields, stale sessions, duplicate request ids,
// cross-session replay of authenticated frames, the v3-peer version
// error), the resident ClusterHandle fleet — and the acceptance property:
// N concurrent client sessions interleaving MC and SSTA-grid requests
// over one resident fleet, with a worker SIGKILLed mid-stream, each
// receive results bitwise-identical to their single-process references
// (docs/DETERMINISM.md, per-request contract).
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/cluster.h"
#include "dist/hmac.h"
#include "dist/result_cache.h"
#include "dist/scheduler.h"
#include "dist/serialize.h"
#include "dist/service.h"
#include "dist/task.h"
#include "dist/transport.h"
#include "dist/workload.h"
#include "netlist/generators.h"
#include "obs/telemetry.h"

extern char** environ;

namespace sp = statpipe;
using sp::dist::ByteReader;
using sp::dist::ByteWriter;
using sp::dist::MsgType;
using sp::dist::SchedTask;
using sp::dist::Scheduler;

namespace {

// ------------------------------------------------------------- helpers

sp::dist::RunDescriptor mc_descriptor(std::uint64_t seed = 20260808,
                                      std::uint64_t samples = 512,
                                      std::uint64_t samples_per_shard = 64) {
  sp::dist::RunDescriptor d;
  d.workload = "c432";
  d.seed = seed;
  d.n_samples = samples;
  d.samples_per_shard = samples_per_shard;
  d.block_width = 8;
  d.sigma_vth_inter = 0.020;
  d.sigma_vth_systematic = 0.010;
  d.enable_rdf = 1;
  sp::dist::finalize_descriptor(d);
  return d;
}

sp::dist::RunDescriptor grid_descriptor(std::size_t lanes = 5,
                                        double scale_step = 0.07) {
  sp::dist::RunDescriptor d;
  d.task_kind = sp::dist::TaskKind::kSstaGrid;
  d.workload = "c432";
  d.seed = 20260808;
  const auto nl = sp::netlist::iscas_like("c432");
  d.size_grid.assign(lanes, nl.sizes());
  for (std::size_t k = 0; k < lanes; ++k)
    for (double& s : d.size_grid[k])
      s *= 1.0 + scale_step * static_cast<double>(k);
  sp::dist::finalize_descriptor(d);
  return d;
}

pid_t spawn_worker(std::uint16_t port) {
  const char* bin = STATPIPE_WORKER_BIN;
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(bin),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str()),
                          const_cast<char*>("--quiet"), nullptr};
  pid_t pid = -1;
  const int rc =
      ::posix_spawn(&pid, bin, nullptr, nullptr, args.data(), environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << bin;
  return rc == 0 ? pid : -1;
}

// Reaps a worker while draining the service's listener backlog (see
// test_dist's reap); `expect_signal` accepts a SIGKILLed one.
void reap(sp::dist::Service& svc, pid_t pid, bool expect_signal = false) {
  if (pid < 0) return;
  int status = 0;
  pid_t got;
  while ((got = ::waitpid(pid, &status, WNOHANG)) == 0) {
    svc.drain_backlog();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(got, pid);
  if (expect_signal) {
    EXPECT_TRUE(WIFSIGNALED(status));
  } else {
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }
}

// A connected AF_UNIX pair wrapped in dist Sockets — the transport works
// on any stream fd, so frame-level adversarial tests need no listener.
std::pair<sp::dist::Socket, sp::dist::Socket> stream_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {sp::dist::Socket(fds[0]), sp::dist::Socket(fds[1])};
}

// Drains one scheduler to a (rid, begin) assignment transcript.
std::vector<std::pair<std::uint64_t, std::size_t>> drain(Scheduler& s) {
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  while (auto t = s.next()) out.emplace_back(t->rid, t->begin);
  return out;
}

// ------------------------------------------------------------ scheduler

TEST(Scheduler, HigherPriorityClassDrainsStrictlyFirst) {
  Scheduler s;
  s.add_request(1, 100, 0);  // session 100, low priority, submitted first
  s.add_request(2, 200, 5);  // session 200, high priority
  s.enqueue({1, 0, 4, 0});
  s.enqueue({1, 4, 8, 0});
  s.enqueue({2, 0, 4, 0});
  s.enqueue({2, 4, 8, 0});
  const auto got = drain(s);
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {2, 0}, {2, 4}, {1, 0}, {1, 4}};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, FairShareAlternatesSessionsWithinAClass) {
  Scheduler s;
  s.add_request(1, 100, 0);
  s.add_request(2, 200, 0);
  for (std::size_t b = 0; b < 6; b += 2) s.enqueue({1, b, b + 2, 0});
  for (std::size_t b = 0; b < 6; b += 2) s.enqueue({2, b, b + 2, 0});
  const auto got = drain(s);
  // Equal range sizes: the deficit counters force strict alternation,
  // first-seen session order breaking the ties.
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {1, 0}, {2, 0}, {1, 2}, {2, 2}, {1, 4}, {2, 4}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(s.session_units(100), 6u);
  EXPECT_EQ(s.session_units(200), 6u);
}

TEST(Scheduler, FairShareBalancesByUnitsNotByRangeCount) {
  Scheduler s;
  s.add_request(1, 100, 0);  // coarse ranges: 4 units each
  s.add_request(2, 200, 0);  // fine ranges: 1 unit each
  s.enqueue({1, 0, 4, 0});
  s.enqueue({1, 4, 8, 0});
  for (std::size_t b = 0; b < 4; ++b) s.enqueue({2, b, b + 1, 0});
  const auto got = drain(s);
  // Session 100 takes 4 units in one gulp; session 200 then catches up
  // with four 1-unit ranges before 100 runs again.
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {1, 0}, {2, 0}, {2, 1}, {2, 2}, {2, 3}, {1, 4}};
  EXPECT_EQ(got, want);
}

TEST(Scheduler, FifoWithinASessionAndQueueOrderWithinARequest) {
  Scheduler s;
  s.add_request(7, 100, 0);
  s.add_request(8, 100, 0);  // same session, submitted later
  s.enqueue({8, 0, 2, 0});   // enqueue order must not matter
  s.enqueue({7, 0, 2, 0});
  s.enqueue({7, 2, 4, 0});
  s.enqueue({8, 2, 4, 0});
  const auto got = drain(s);
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {7, 0}, {7, 2}, {8, 0}, {8, 2}};
  EXPECT_EQ(got, want);
}

TEST(Scheduler, RequeueFrontRunsTheRetryBeforeFreshRanges) {
  Scheduler s;
  s.add_request(1, 100, 0);
  s.enqueue({1, 0, 2, 0});
  s.enqueue({1, 2, 4, 0});
  auto first = s.next();
  ASSERT_TRUE(first);
  EXPECT_EQ(first->begin, 0u);
  first->attempts = 1;
  s.requeue_front(*first);
  auto retry = s.next();
  ASSERT_TRUE(retry);
  EXPECT_EQ(retry->begin, 0u);  // the forfeited range again, not [2, 4)
  EXPECT_EQ(retry->attempts, 1);
}

TEST(Scheduler, RemoveRequestDropsItsPendingRanges) {
  Scheduler s;
  s.add_request(1, 100, 0);
  s.add_request(2, 100, 0);
  s.enqueue({1, 0, 2, 0});
  s.enqueue({2, 0, 2, 0});
  EXPECT_EQ(s.pending_ranges(), 2u);
  s.remove_request(1);
  EXPECT_EQ(s.pending_ranges(), 1u);
  const auto got = drain(s);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].first, 2u);
}

TEST(Scheduler, IdenticalCallSequencesYieldIdenticalAssignments) {
  auto build = [] {
    Scheduler s;
    s.add_request(1, 100, 2);
    s.add_request(2, 200, 0);
    s.add_request(3, 100, 0);
    for (std::size_t b = 0; b < 8; b += 2) {
      s.enqueue({1, b, b + 2, 0});
      s.enqueue({2, b, b + 1, 0});
      s.enqueue({3, b, b + 2, 0});
    }
    return s;
  };
  Scheduler a = build();
  Scheduler b = build();
  // Interleave a requeue identically on both.
  auto ta = a.next();
  auto tb = b.next();
  ASSERT_TRUE(ta && tb);
  a.requeue_front(*ta);
  b.requeue_front(*tb);
  EXPECT_EQ(drain(a), drain(b));
}

// ----------------------------------------------------------- result cache

TEST(ResultCache, KeyChangesWhenOneTechnologyF64Changes) {
  // The service keys a request by its serialized kSetup payload; so does
  // this test.
  auto key_of = [](const sp::dist::RunDescriptor& d) {
    sp::dist::ByteWriter w;
    sp::dist::write_run_descriptor(w, d);
    return sp::dist::ResultCache::key_for(w.bytes());
  };
  sp::dist::RunDescriptor a = mc_descriptor();
  sp::dist::RunDescriptor b = a;
  b.tech_avt = std::nextafter(b.tech_avt, 1.0);  // one f64 ulp
  const sp::dist::Digest ka = key_of(a);
  const sp::dist::Digest kb = key_of(b);
  EXPECT_TRUE(ka < kb || kb < ka) << "one-ulp technology change must rekey";

  sp::dist::RunDescriptor c = a;
  c.root_seed ^= 1;  // the (descriptor, root_seed) identity
  const sp::dist::Digest kc = key_of(c);
  EXPECT_TRUE(ka < kc || kc < ka) << "root_seed is part of the cache key";

  EXPECT_FALSE(ka < key_of(a) || key_of(a) < ka);
}

TEST(ResultCache, HitMissAndDeterministicLruEviction) {
  auto key = [](char c) {
    const std::vector<std::uint8_t> bytes{static_cast<std::uint8_t>(c)};
    return sp::dist::sha256(bytes);
  };
  const std::vector<std::uint8_t> blob(40, 0xAB);

  sp::dist::ResultCache cache(100);
  EXPECT_EQ(cache.find(key('a')), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
  cache.insert(key('a'), blob);
  ASSERT_NE(cache.find(key('a')), nullptr);
  EXPECT_EQ(cache.hits(), 1u);

  cache.insert(key('b'), blob);
  ASSERT_NE(cache.find(key('a')), nullptr);  // refresh a: b is now LRU
  cache.insert(key('c'), blob);              // 120 > 100: evict exactly b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.find(key('b')), nullptr);
  EXPECT_NE(cache.find(key('a')), nullptr);
  EXPECT_NE(cache.find(key('c')), nullptr);

  // Same call sequence, fresh cache: identical eviction outcome.
  sp::dist::ResultCache replay(100);
  (void)replay.find(key('a'));
  replay.insert(key('a'), blob);
  (void)replay.find(key('a'));
  replay.insert(key('b'), blob);
  (void)replay.find(key('a'));
  replay.insert(key('c'), blob);
  EXPECT_EQ(replay.evictions(), 1u);
  EXPECT_EQ(replay.find(key('b')), nullptr);
  EXPECT_NE(replay.find(key('a')), nullptr);
}

TEST(ResultCache, OversizeBlobsAndZeroBoundNeverCache) {
  const std::vector<std::uint8_t> small(8, 1);
  const std::vector<std::uint8_t> huge(200, 2);
  const auto k = sp::dist::sha256(small);

  sp::dist::ResultCache bounded(100);
  bounded.insert(k, huge);  // alone larger than the bound: dropped
  EXPECT_EQ(bounded.entries(), 0u);
  EXPECT_EQ(bounded.find(k), nullptr);

  sp::dist::ResultCache disabled(0);
  disabled.insert(k, small);
  EXPECT_EQ(disabled.entries(), 0u);
  EXPECT_EQ(disabled.find(k), nullptr);
  EXPECT_EQ(disabled.misses(), 1u);
}

// ------------------------------------------------- wire v4 frame hardening

TEST(WireV4, V3PeerGetsTheClearVersionError) {
  auto [a, b] = stream_pair();
  ByteWriter w;  // a v3-style 16-byte header: magic, u16 version=3, ...
  w.u32(sp::dist::kWireMagic);
  w.u16(3);
  w.u16(1);
  w.u64(0);
  a.send_all(w.bytes().data(), w.bytes().size());
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "v3 header must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wire version 3"), std::string::npos)
        << e.what();
    const std::string this_build =
        "this build " + std::to_string(sp::dist::kWireVersion);
    EXPECT_NE(std::string(e.what()).find(this_build), std::string::npos)
        << e.what();
  }
}

TEST(WireV4, EveryHeaderTruncationIsRejectedNotAccepted) {
  ByteWriter payload;
  payload.u16(sp::dist::kWireVersion);
  const std::vector<std::uint8_t> frame = sp::dist::encode_frame(
      MsgType::kClientHello, payload.bytes(), {}, 7, 9);
  ASSERT_GE(frame.size(), 36u);
  for (std::size_t len = 0; len < 36; ++len) {
    auto [a, b] = stream_pair();
    a.send_all(frame.data(), len);
    a.close();
    if (len == 0) {
      // A close at the frame boundary is the one clean disconnect.
      EXPECT_EQ(sp::dist::recv_frame(b), std::nullopt);
    } else {
      EXPECT_THROW((void)sp::dist::recv_frame(b), std::runtime_error)
          << "truncated header at " << len << " bytes";
    }
  }
  // The two-stage read names the prefix boundary precisely.
  auto [a, b] = stream_pair();
  a.send_all(frame.data(), 8);
  a.close();
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "prefix-only header must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("8/36"), std::string::npos)
        << e.what();
  }
}

TEST(WireV4, EveryAuthenticatedByteMutationIsRejected) {
  const sp::dist::FrameAuth auth =
      sp::dist::FrameAuth::from_passphrase("mutation-fuzz-key");
  ByteWriter payload;
  payload.u32(0);
  payload.str("request body");
  const std::vector<std::uint8_t> frame = sp::dist::encode_frame(
      MsgType::kSubmit, payload.bytes(), auth, 0x1122334455667788ull,
      0x99AABBCCDDEEFF00ull);
  // Flip one bit of every byte — header (the MAC covers the whole v4
  // header, session and request ids included), payload and trailer — so
  // no single-byte corruption may survive, and a frame can never be
  // accepted with altered routing fields.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::vector<std::uint8_t> bad = frame;
    bad[i] ^= 0x01;
    auto [a, b] = stream_pair();
    a.send_all(bad.data(), bad.size());
    a.close();
    EXPECT_THROW((void)sp::dist::recv_frame(b, auth), std::runtime_error)
        << "mutated byte " << i << " was accepted";
  }
  // Control: the unmutated frame round-trips with its scoping intact.
  auto [a, b] = stream_pair();
  a.send_all(frame.data(), frame.size());
  const auto f = sp::dist::recv_frame(b, auth);
  ASSERT_TRUE(f);
  EXPECT_EQ(f->type, MsgType::kSubmit);
  EXPECT_EQ(f->session_id, 0x1122334455667788ull);
  EXPECT_EQ(f->request_id, 0x99AABBCCDDEEFF00ull);
}

// ------------------------------------------------- service session guards

// Hosts a Service on a background thread for adversarial client tests.
// The destructor wakes the event loop with a throwaway client hello so
// the stop predicate is observed without needing an idle timeout.
class LiveService {
 public:
  explicit LiveService(sp::dist::ServiceOptions so) : svc_(std::move(so)) {
    th_ = std::thread([this] { svc_.run([this] { return stop_.load(); }); });
  }
  ~LiveService() {
    stop_.store(true);
    try {
      // The service may observe stop_ and exit before this wake
      // connection is admitted — bound the read so the race cannot wedge
      // the destructor (the join below is safe either way).
      sp::dist::Socket s = sp::dist::connect_to("127.0.0.1", svc_.port());
      s.set_recv_timeout_ms(2000);
      ByteWriter hello;
      hello.u16(sp::dist::kWireVersion);
      sp::dist::send_frame(s, MsgType::kClientHello, hello.bytes(), auth_);
      (void)sp::dist::recv_frame(s, auth_);
    } catch (...) {
    }
    th_.join();
  }
  sp::dist::Service& svc() { return svc_; }
  void set_auth(const sp::dist::FrameAuth& a) { auth_ = a; }

 private:
  sp::dist::Service svc_;
  sp::dist::FrameAuth auth_;
  std::thread th_;
  std::atomic<bool> stop_{false};
};

// One raw v4 client handshake; returns the granted session id.
std::uint64_t client_handshake(sp::dist::Socket& s,
                               const sp::dist::FrameAuth& auth = {}) {
  ByteWriter hello;
  hello.u16(sp::dist::kWireVersion);
  sp::dist::send_frame(s, MsgType::kClientHello, hello.bytes(), auth);
  const auto welcome = sp::dist::recv_frame(s, auth);
  EXPECT_TRUE(welcome && welcome->type == MsgType::kWelcome);
  if (!welcome || welcome->type != MsgType::kWelcome) return 0;
  ByteReader r(welcome->payload);
  const std::uint64_t session = r.u64();
  r.expect_done();
  return session;
}

std::vector<std::uint8_t> submit_payload(const sp::dist::RunDescriptor& d,
                                         std::uint32_t priority = 0) {
  ByteWriter w;
  w.u32(priority);
  sp::dist::write_run_descriptor(w, d);
  return w.bytes();
}

std::string error_text(const std::optional<sp::dist::Frame>& f) {
  EXPECT_TRUE(f && f->type == MsgType::kError);
  if (!f || f->type != MsgType::kError) return {};
  ByteReader r(f->payload);
  return r.str();
}

TEST(ServiceSessions, UnknownOrStaleSessionIdIsRejected) {
  LiveService live({});
  sp::dist::Socket c = sp::dist::connect_to("127.0.0.1", live.svc().port());
  const std::uint64_t session = client_handshake(c);
  ASSERT_NE(session, 0u);
  const auto d = mc_descriptor();
  sp::dist::send_frame(c, MsgType::kSubmit, submit_payload(d), {},
                       session + 17, 1);
  const std::string why = error_text(sp::dist::recv_frame(c));
  EXPECT_NE(why.find("unknown or stale session id"), std::string::npos)
      << why;
}

TEST(ServiceSessions, DuplicateRequestIdIsRejected) {
  LiveService live({});
  sp::dist::Socket c = sp::dist::connect_to("127.0.0.1", live.svc().port());
  const std::uint64_t session = client_handshake(c);
  ASSERT_NE(session, 0u);
  const auto d = mc_descriptor();
  sp::dist::send_frame(c, MsgType::kSubmit, submit_payload(d), {}, session,
                       1);
  sp::dist::send_frame(c, MsgType::kSubmit, submit_payload(d), {}, session,
                       1);
  const std::string why = error_text(sp::dist::recv_frame(c));
  EXPECT_NE(why.find("duplicate request id"), std::string::npos) << why;
}

TEST(ServiceSessions, CrossSessionReplayOfAuthenticatedFrameIsRejected) {
  const std::string key = "replay-defense-key";
  sp::dist::ServiceOptions so;
  so.auth_key = key;
  LiveService live(std::move(so));
  const sp::dist::FrameAuth auth = sp::dist::FrameAuth::from_passphrase(key);
  live.set_auth(auth);

  // Session A submits a perfectly valid, correctly MACed request...
  sp::dist::Socket a = sp::dist::connect_to("127.0.0.1", live.svc().port());
  const std::uint64_t sa = client_handshake(a, auth);
  ASSERT_NE(sa, 0u);
  const auto d = mc_descriptor();
  const std::vector<std::uint8_t> captured = sp::dist::encode_frame(
      MsgType::kSubmit, submit_payload(d), auth, sa, 1);
  a.send_all(captured.data(), captured.size());

  // ...which an eavesdropper replays verbatim on its own session.  The
  // MAC verifies (same shared key), but the frame is bound to session A —
  // granted to a different connection — so the service refuses it.
  sp::dist::Socket b = sp::dist::connect_to("127.0.0.1", live.svc().port());
  const std::uint64_t sb = client_handshake(b, auth);
  ASSERT_NE(sb, 0u);
  ASSERT_NE(sb, sa);
  b.send_all(captured.data(), captured.size());
  const std::string why = error_text(sp::dist::recv_frame(b, auth));
  EXPECT_NE(why.find("unknown or stale session id"), std::string::npos)
      << why;
}

// -------------------------------------------------- client result guard

// A scripted fake service on a real listener answers each submission with
// kRequestDone carrying a valid Monte-Carlo blob under the wrong task
// kind: first kind 7 (no such kind), then the grid kind.  The client must
// reject both instead of handing back a TaskResult of a kind it never
// submitted.
TEST(ServiceClientWire, WaitRejectsAResultOfAnotherTaskKind) {
  sp::dist::Listener listener("127.0.0.1", 0);
  sp::mc::McResult mc;
  mc.tp_samples = {180.0, 190.0};
  const std::vector<std::uint8_t> blob = sp::dist::serialize_mc_result(mc);
  const std::uint16_t wrong_kinds[] = {
      7, static_cast<std::uint16_t>(sp::dist::TaskKind::kSstaGrid)};
  const std::uint64_t session = 5;
  std::thread fake([&] {
    sp::dist::Socket s = listener.accept();
    const auto hello = sp::dist::recv_frame(s);
    ASSERT_TRUE(hello && hello->type == MsgType::kClientHello);
    ByteWriter welcome;
    welcome.u64(session);
    sp::dist::send_frame(s, MsgType::kWelcome, welcome.bytes(), {}, session);
    for (const std::uint16_t kind : wrong_kinds) {
      const auto submit = sp::dist::recv_frame(s);
      ASSERT_TRUE(submit && submit->type == MsgType::kSubmit);
      ByteWriter done;
      done.u16(kind);
      done.u8(0);   // not a cache hit
      done.u64(0);  // queue wait
      done.append(blob);
      sp::dist::send_frame(s, MsgType::kRequestDone, done.bytes(), {},
                           session, submit->request_id);
    }
  });
  sp::dist::ServiceClient client("127.0.0.1", listener.port());
  ASSERT_EQ(client.session(), session);
  for (const std::uint16_t kind : wrong_kinds) {
    const std::uint64_t id = client.submit(mc_descriptor());
    try {
      (void)client.wait(id);
      ADD_FAILURE() << "a kind-" << kind << " result was accepted for an "
                    << "MC request";
    } catch (const std::runtime_error& e) {
      const std::string why = e.what();
      EXPECT_NE(why.find("task kind " + std::to_string(kind)),
                std::string::npos)
          << why;
      EXPECT_NE(why.find("submitted as 1"), std::string::npos) << why;
    }
  }
  fake.join();
}

// ----------------------------------------------- resident cluster handle

TEST(ClusterHandleTest, ResidentFleetServesManyDescriptorsAndCaches) {
  sp::dist::ClusterOptions cl;
  cl.spawn_workers = 2;
  cl.worker_bin = STATPIPE_WORKER_BIN;
  cl.coordinator.units_per_range = 2;
  cl.coordinator.idle_timeout_ms = 120000;  // bounds the admission wait
  sp::dist::ClusterHandle handle(cl);

  const auto d_mc = mc_descriptor();
  const auto d_grid = grid_descriptor(5);
  const auto ref_mc = sp::dist::run_local_task(d_mc);
  const auto ref_grid = sp::dist::run_local_task(d_grid);

  // Admit both spawned workers before submitting, so the fleet-size check
  // below cannot race a slow second worker.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  handle.serve([&] {
    return handle.stats().workers_admitted >= 2 ||
           std::chrono::steady_clock::now() > deadline;
  });
  ASSERT_EQ(handle.stats().workers_admitted, 2u);

  sp::dist::RunMetrics m1;
  const auto r1 = handle.submit(d_mc, 0, &m1);
  EXPECT_TRUE(sp::dist::bitwise_equal(r1, ref_mc));
  EXPECT_EQ(m1.cache_hits, 0u);
  EXPECT_EQ(m1.cache_misses, 1u);

  const auto r2 = handle.submit(d_grid);
  EXPECT_TRUE(sp::dist::bitwise_equal(r2, ref_grid));

  // The resubmission is a cache hit and byte-identical to the recompute.
  sp::dist::RunMetrics m3;
  const auto r3 = handle.submit(d_mc, 0, &m3);
  EXPECT_EQ(m3.cache_hits, 1u);
  EXPECT_EQ(m3.cache_misses, 0u);
  EXPECT_TRUE(sp::dist::bitwise_equal(r3, r1));
  EXPECT_TRUE(sp::dist::bitwise_equal(r3, ref_mc));

  const sp::dist::ServiceStats st = handle.stats();
  // The fleet stayed RESIDENT: two workers admitted once, not per submit.
  EXPECT_EQ(st.workers_admitted, 2u);
  EXPECT_EQ(st.requests_completed, 3u);
  EXPECT_EQ(st.requests_failed, 0u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 2u);

  handle.close();
  handle.close();  // idempotent
  EXPECT_THROW((void)handle.submit(d_mc), std::logic_error);
}

TEST(ClusterHandleTest, CacheCountersFeedTheTelemetryLayer) {
  sp::obs::reset();
  sp::obs::set_enabled(true);
  {
    sp::dist::ClusterOptions cl;
    cl.spawn_workers = 1;
    cl.worker_bin = STATPIPE_WORKER_BIN;
    sp::dist::ClusterHandle handle(cl);
    const auto d = mc_descriptor(424242, 128, 64);
    (void)handle.submit(d);
    (void)handle.submit(d);  // the hit
    handle.close();
  }
  const std::string path = ::testing::TempDir() + "service_metrics.json";
  sp::obs::write_metrics_json(path);
  sp::obs::set_enabled(false);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("dist.service.cache.hits"), std::string::npos);
  EXPECT_NE(json.find("dist.service.cache.misses"), std::string::npos);
  EXPECT_NE(json.find("dist.service.requests"), std::string::npos);
  std::remove(path.c_str());
}

// -------------------------------------- concurrent multi-client property

// The service's acceptance property (scheduler determinism): concurrent
// client sessions interleave MC and SSTA-grid requests over one resident
// fleet, with randomized submission delays and one worker SIGKILLed while
// requests are in flight.  Scheduling order is explicitly allowed to
// vary; every request's RESULT BYTES must equal its single-client local
// reference.  A second wave resubmits everything against the same
// service — answered from the result cache, still byte-identical.
TEST(ServiceDeterminism, ConcurrentClientsMatchLocalReferencesUnderChurn) {
  const std::vector<sp::dist::RunDescriptor> descs = {
      mc_descriptor(1001, 2048, 64),  // 32 units: the kill lands mid-run
      mc_descriptor(1002, 1536, 48),  //
      grid_descriptor(9, 0.05),       //
      grid_descriptor(11, 0.03),
  };
  std::vector<sp::dist::TaskResult> refs;
  refs.reserve(descs.size());
  for (const auto& d : descs) refs.push_back(sp::dist::run_local_task(d));

  sp::dist::ServiceOptions so;
  so.units_per_range = 2;  // many small ranges: real interleaving
  so.max_attempts = 5;
  sp::dist::Service svc(std::move(so));

  std::vector<pid_t> kids;
  for (int i = 0; i < 3; ++i) kids.push_back(spawn_worker(svc.port()));

  // Per client: which descriptors, in which order — deliberately
  // different per session so the scheduler must interleave.
  const std::vector<std::vector<std::size_t>> plans = {
      {0, 2, 1}, {3, 0, 2}, {1, 3, 0}};
  std::size_t wave1 = 0;
  for (const auto& p : plans) wave1 += p.size();

  std::atomic<std::size_t> mismatches{0};
  auto client_wave = [&](std::uint64_t rng_seed) {
    std::vector<std::thread> clients;
    for (std::size_t ci = 0; ci < plans.size(); ++ci) {
      clients.emplace_back([&, ci, rng_seed] {
        std::mt19937_64 rng(rng_seed + ci);
        std::uniform_int_distribution<int> delay_ms(0, 7);
        std::uniform_int_distribution<std::uint32_t> prio(0, 2);
        sp::dist::ServiceClient client("127.0.0.1", svc.port());
        std::vector<std::pair<std::uint64_t, std::size_t>> ids;
        for (const std::size_t di : plans[ci]) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(delay_ms(rng)));
          ids.emplace_back(client.submit(descs[di], prio(rng)), di);
        }
        for (const auto& [id, di] : ids) {
          const sp::dist::TaskResult got = client.wait(id);
          if (!sp::dist::bitwise_equal(got, refs[di])) mismatches += 1;
        }
      });
    }
    return clients;
  };

  // Wave 1, with a worker assassinated while requests are in flight.
  std::vector<std::thread> clients = client_wave(90210);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    ::kill(kids[0], SIGKILL);
  });
  svc.run([&] { return svc.requests_completed() >= wave1; });
  for (auto& t : clients) t.join();
  killer.join();
  EXPECT_EQ(mismatches.load(), 0u) << "wave 1 diverged from local refs";

  // Wave 2: identical resubmissions against the SAME service — answered
  // from the result cache, still bitwise-identical to the references.
  std::vector<std::thread> clients2 = client_wave(424242);
  svc.run([&] { return svc.requests_completed() >= 2 * wave1; });
  for (auto& t : clients2) t.join();
  EXPECT_EQ(mismatches.load(), 0u) << "wave 2 (cached) diverged";

  const sp::dist::ServiceStats st = svc.stats();
  EXPECT_EQ(st.requests_completed, 2 * wave1);
  EXPECT_EQ(st.requests_failed, 0u);
  EXPECT_GE(st.cache_hits, wave1);  // every wave-2 submission, at least
  EXPECT_GE(st.session_units.size(), 2u);

  svc.shutdown_workers();
  reap(svc, kids[0], /*expect_signal=*/true);
  reap(svc, kids[1]);
  reap(svc, kids[2]);
}

}  // namespace
