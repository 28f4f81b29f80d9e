// Distributed execution subsystem tests: serialization round-trips (byte
// stability, version gating, truncation/hostile-length fuzz — including
// the v2 task-kind discriminator and the SSTA grid payload), protocol/
// transport behavior (v3 streaming results, HMAC frame authentication,
// fault-injected sockets, the hostile-peer saboteur matrix), and the
// acceptance contract — a c3540-class gate-level MC run AND an SSTA sweep
// grid sharded across real worker PROCESSES over localhost TCP are
// bitwise-identical to the single-process runs, including under injected
// worker failures, hostile peers and reassignment (docs/DETERMINISM.md).
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bad_specs.h"
#include "dist/cluster.h"
#include "dist/hmac.h"
#include "dist/serialize.h"
#include "dist/service.h"
#include "dist/task.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "dist/workload.h"
#include "mc/pipeline_mc.h"
#include "netlist/generators.h"
#include "opt/sweep.h"
#include "sta/ssta_batch.h"
#include "stats/rng.h"

extern char** environ;

namespace sp = statpipe;
using sp::dist::ByteReader;
using sp::dist::ByteWriter;

namespace {

// ------------------------------------------------------------- helpers

sp::dist::RunDescriptor small_descriptor(
    const std::string& workload = "c432", std::uint64_t samples = 1024,
    std::uint64_t samples_per_shard = 128) {
  sp::dist::RunDescriptor d;
  d.workload = workload;
  d.seed = 20260729;
  d.n_samples = samples;
  d.samples_per_shard = samples_per_shard;
  d.block_width = 8;
  d.sigma_vth_inter = 0.020;
  d.sigma_vth_systematic = 0.010;
  d.enable_rdf = 1;
  sp::dist::finalize_descriptor(d);
  return d;
}

pid_t spawn_worker_process(std::uint16_t port, const std::string& key = "") {
  const char* bin = STATPIPE_WORKER_BIN;
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(bin),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str())};
  if (!key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(key.c_str()));
  }
  args.push_back(const_cast<char*>("--quiet"));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, bin, nullptr, nullptr, args.data(),
                               environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << bin;
  return rc == 0 ? pid : -1;
}

// One hostile peer, one attack (tools/statpipe_saboteur.cpp): the chaos
// matrix spawns these against live coordinators.
pid_t spawn_saboteur_process(std::uint16_t port, const std::string& mode,
                             const std::string& key = "") {
  const char* bin = STATPIPE_SABOTEUR_BIN;
  const std::string port_s = std::to_string(port);
  std::vector<char*> args{const_cast<char*>(bin),
                          const_cast<char*>("--port"),
                          const_cast<char*>(port_s.c_str()),
                          const_cast<char*>("--mode"),
                          const_cast<char*>(mode.c_str())};
  if (!key.empty()) {
    args.push_back(const_cast<char*>("--key"));
    args.push_back(const_cast<char*>(key.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, bin, nullptr, nullptr, args.data(),
                               environ);
  EXPECT_EQ(rc, 0) << "posix_spawn " << bin;
  return rc == 0 ? pid : -1;
}

// Serves one local request to completion the way a one-shot run does:
// run until it is done, send kShutdown to the connected workers, dismiss
// any straggler waiting in the backlog, take the result.
sp::dist::TaskResult run_request(sp::dist::Service& svc, std::uint64_t rid) {
  svc.run([&] { return svc.local_done(rid); });
  svc.shutdown_workers();
  svc.drain_backlog();
  return svc.take_local_result(rid);
}

// Reaps a spawned worker while draining the service's listener backlog,
// so a worker that connected only after the run completed is dismissed
// with kShutdown instead of hanging in its setup read.
void reap(sp::dist::Service& svc, pid_t pid, int expect_status = 0) {
  if (pid < 0) return;
  int status = 0;
  pid_t got;
  while ((got = ::waitpid(pid, &status, WNOHANG)) == 0) {
    svc.drain_backlog();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_EQ(got, pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), expect_status);
}

// A small SSTA sweep-grid descriptor: `lanes` uniformly scaled copies of
// the circuit's base sizes (every lane a full size vector, as the wire
// format requires).
sp::dist::RunDescriptor grid_descriptor(const std::string& name = "c432",
                                        std::size_t lanes = 6) {
  sp::dist::RunDescriptor d;
  d.task_kind = sp::dist::TaskKind::kSstaGrid;
  d.workload = name;
  d.seed = 20260729;
  const auto nl = sp::netlist::iscas_like(name);
  d.size_grid.assign(lanes, nl.sizes());
  for (std::size_t k = 0; k < lanes; ++k)
    for (double& s : d.size_grid[k]) s *= 1.0 + 0.07 * static_cast<double>(k);
  sp::dist::finalize_descriptor(d);
  return d;
}

sp::stats::RunningStats random_stats(std::mt19937_64& g, std::size_t n) {
  std::normal_distribution<double> d(250.0, 40.0);
  sp::stats::RunningStats s;
  for (std::size_t i = 0; i < n; ++i) s.add(d(g));
  return s;
}

// ---------------------------------------------------------- serialization

TEST(DistSerialize, PrimitivesRoundTripLittleEndian) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(-1234.5678e-9);
  w.str("shard range");
  // Wire bytes are defined, not host-dependent: check u16's layout.
  EXPECT_EQ(w.bytes()[1], 0x34);  // low byte first
  EXPECT_EQ(w.bytes()[2], 0x12);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.f64(), -1234.5678e-9);
  EXPECT_EQ(r.str(), "shard range");
  EXPECT_TRUE(r.done());
}

TEST(DistSerialize, TruncatedPayloadThrows) {
  ByteWriter w;
  w.u64(7);
  std::vector<std::uint8_t> bytes = w.bytes();
  bytes.pop_back();
  ByteReader r(bytes);
  EXPECT_THROW(r.u64(), std::runtime_error);
  // A vector count the payload cannot hold must throw before the reader
  // allocates: hostile counts (two whose byte size wraps, to 0 and to
  // exactly the 16 bytes that follow) and an honest count one short.
  for (const std::uint64_t n :
       {~0ULL, 1ULL << 61, (1ULL << 61) + 2, 3ULL}) {
    ByteWriter w2;
    w2.u64(n);
    w2.f64(1.0);
    w2.f64(2.0);  // room for two doubles, not three
    ByteReader r2(w2.bytes());
    EXPECT_THROW(r2.f64_vec(), std::runtime_error) << "count " << n;
  }
  ByteWriter w3;
  w3.f64_vec({1.0, 2.0, 3.0});
  std::vector<std::uint8_t> cut = w3.bytes();
  cut.pop_back();
  ByteReader r3(cut);
  EXPECT_THROW(r3.f64_vec(), std::runtime_error);
}

// f64_vec writes each value exactly as f64() does (its IEEE-754 pattern,
// low byte first), whichever path the host takes, for the values a byte
// copy could plausibly mangle.
TEST(DistSerialize, F64VecBytesEqualPerElementBitPatterns) {
  const std::vector<double> v = {
      -0.0,
      std::bit_cast<double>(0x7ff80000deadbeefULL),  // NaN with a payload
      std::numeric_limits<double>::denorm_min() * 3,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0};
  ByteWriter bulk;
  bulk.f64_vec(v);
  ByteWriter each;
  each.u64(v.size());
  for (double d : v) each.u64(std::bit_cast<std::uint64_t>(d));
  EXPECT_EQ(bulk.bytes(), each.bytes());
  EXPECT_EQ(bulk.bytes()[8 + 8 * 5 + 6], 0xf0);  // 1.0 = 0x3ff0..., LE
  ByteReader r(bulk.bytes());
  const std::vector<double> back = r.f64_vec();
  EXPECT_TRUE(r.done());
  ASSERT_EQ(back.size(), v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(v[i]))
        << "element " << i;
}

TEST(DistSerialize, RunningStatsRoundTripIsExact) {
  std::mt19937_64 g(42);
  for (int rep = 0; rep < 50; ++rep) {
    const auto s = random_stats(g, 1 + static_cast<std::size_t>(g() % 500));
    ByteWriter w;
    sp::dist::write_running_stats(w, s);
    ByteReader r(w.bytes());
    const auto back = sp::dist::read_running_stats(r);
    EXPECT_TRUE(r.done());
    // Exact, not approximate: every internal field crosses the wire as its
    // bit pattern.
    EXPECT_EQ(back.count(), s.count());
    EXPECT_EQ(back.mean(), s.mean());
    EXPECT_EQ(back.variance(), s.variance());
    EXPECT_EQ(back.min(), s.min());
    EXPECT_EQ(back.max(), s.max());
    // Byte-stable: serialize(deserialize(b)) == b.
    ByteWriter w2;
    sp::dist::write_running_stats(w2, back);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(DistSerialize, McResultRoundTripFuzzIsByteStable) {
  std::mt19937_64 g(1234);
  std::normal_distribution<double> d(250.0, 40.0);
  for (int rep = 0; rep < 25; ++rep) {
    sp::mc::McResult m;
    m.label = rep % 3 == 0 ? "" : "fuzz run " + std::to_string(rep);
    const std::size_t n = g() % 200;
    for (std::size_t i = 0; i < n; ++i) m.tp_samples.push_back(d(g));
    m.stage_stats.resize(g() % 5);
    for (auto& s : m.stage_stats) s = random_stats(g, g() % 100);
    const auto bytes = sp::dist::serialize_mc_result(m);
    const auto back = sp::dist::deserialize_mc_result(bytes);
    EXPECT_EQ(sp::dist::serialize_mc_result(back), bytes);
    EXPECT_TRUE(sp::dist::bitwise_equal(m, back));
  }
}

TEST(DistSerialize, HostileStageCountThrowsInsteadOfAllocating) {
  ByteWriter w;
  w.str("evil");
  w.f64_vec({});             // no samples
  w.u64(1ULL << 60);         // claimed stage count
  ByteReader r(w.bytes());
  EXPECT_THROW(sp::dist::read_mc_result(r), std::runtime_error);
}

TEST(DistSerialize, ResultBlobRejectsBadMagicAndVersion) {
  sp::mc::McResult m;
  m.tp_samples = {1.0, 2.0};
  m.stage_stats.resize(1);
  auto bytes = sp::dist::serialize_mc_result(m);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_THROW(sp::dist::deserialize_mc_result(corrupt), std::runtime_error);
  auto future = bytes;
  future[4] = 0x7f;  // version low byte
  EXPECT_THROW(sp::dist::deserialize_mc_result(future), std::runtime_error);
}

TEST(DistSerialize, RunDescriptorRoundTrip) {
  const auto d = small_descriptor("c432,c880", 2048, 256);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  ByteReader r(w.bytes());
  const auto back = sp::dist::read_run_descriptor(r);
  r.expect_done();
  EXPECT_EQ(back.workload, d.workload);
  EXPECT_EQ(back.netlist_hash, d.netlist_hash);
  EXPECT_EQ(back.seed, d.seed);
  EXPECT_EQ(back.root_seed, d.root_seed);
  EXPECT_EQ(back.n_samples, d.n_samples);
  EXPECT_EQ(back.samples_per_shard, d.samples_per_shard);
  EXPECT_EQ(back.block_width, d.block_width);
  EXPECT_EQ(back.sigma_vth_inter, d.sigma_vth_inter);
  EXPECT_EQ(back.enable_rdf, d.enable_rdf);
  EXPECT_EQ(back.output_load, d.output_load);
  EXPECT_EQ(back.latch_tcq_ps, d.latch_tcq_ps);
}

// ------------------------------------------------------------- workload

TEST(DistWorkload, HashMismatchIsRejected) {
  auto d = small_descriptor();
  d.netlist_hash ^= 1;
  EXPECT_THROW(sp::dist::Workload::make(d), std::invalid_argument);
}

TEST(DistWorkload, UnknownCircuitIsRejected) {
  sp::dist::RunDescriptor d;
  d.workload = "c9999";
  d.n_samples = 16;
  EXPECT_THROW(sp::dist::finalize_descriptor(d), std::invalid_argument);
}

TEST(DistWorkload, NanCorrelationLengthIsRejectedUpFront) {
  // A wire descriptor's field inputs reach the sampler unchecked; the
  // sampler itself must name the bad input, not let a NaN field surface
  // later as an out-of-range drive ratio.
  auto d = small_descriptor();
  d.correlation_length = std::nan("");
  try {
    sp::dist::finalize_descriptor(d);
    ADD_FAILURE() << "NaN correlation_length accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("correlation_length"),
              std::string::npos)
        << e.what();
  }
}

TEST(DistWorkload, DescriptorsRejectBadVariationSpecs) {
  // Both task kinds, at finalization and at worker setup: a NaN sigma must
  // neither run as 0 on the MC path (a result the cache would keep) nor
  // reach a grid worker, where clark_max would throw on every retry.
  for (const auto& base : {small_descriptor(), grid_descriptor("c432", 2)}) {
    SCOPED_TRACE(base.task_kind == sp::dist::TaskKind::kSstaGrid ? "grid"
                                                                 : "mc");
    bad_specs::expect_rejected([&](const sp::process::VariationSpec& spec) {
      auto d = base;
      sp::dist::set_descriptor_spec(d, spec);
      sp::dist::finalize_descriptor(d);
    });
    bad_specs::expect_rejected([&](const sp::process::VariationSpec& spec) {
      auto d = base;
      sp::dist::set_descriptor_spec(d, spec);
      (void)sp::dist::make_unit_runner(d);
    });
  }
}

TEST(DistWorkload, McDescriptorRejectsBadOutputLoad) {
  // The engine rejects a load that is not finite and >= 0, so finalizing
  // and every worker-side or local assembly of such a descriptor fail.
  for (const double load : {std::nan(""),
                            std::numeric_limits<double>::infinity(), -1.0}) {
    auto d = small_descriptor();
    d.output_load = load;
    auto again = d;
    EXPECT_THROW(sp::dist::finalize_descriptor(again), std::invalid_argument)
        << "output_load " << load;
    EXPECT_THROW((void)sp::dist::make_unit_runner(d), std::invalid_argument);
    EXPECT_THROW((void)sp::dist::run_local_task(d), std::invalid_argument);
  }
}

TEST(DistWorkload, StructuralHashDetectsStageEdits) {
  auto a = sp::netlist::iscas_like("c432");
  auto b = sp::netlist::iscas_like("c432");
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  b.gate(b.topological_order().back()).size *= 1.5;
  EXPECT_NE(a.structural_hash(), b.structural_hash());
}

// ----------------------------------------------- run_shard_range contract

TEST(DistEngine, ShardRangePartsFoldToLocalRun) {
  const auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  const auto wl = sp::dist::Workload::make(desc);
  const sp::mc::McResult local = sp::dist::run_local(desc);
  // Recompute the run in arbitrary contiguous pieces; fold ascending.
  std::vector<sp::mc::McResult> parts;
  for (const auto& [b, e] :
       {std::pair<std::size_t, std::size_t>{0, 3}, {3, 4}, {4, 8}}) {
    auto range = wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                              b, e, wl->exec(desc));
    for (auto& p : range) parts.push_back(std::move(p));
  }
  sp::mc::McResult acc = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i)
    acc.merge(std::move(parts[i]));
  acc.label = local.label;
  EXPECT_TRUE(sp::dist::bitwise_equal(acc, local));

  // The service's path for both kinds: each unit payload the runner emits
  // over the same pieces is decoded and folded ascending (dist/task.h).
  for (const auto& d : {desc, grid_descriptor("c432", 8)}) {
    SCOPED_TRACE(sp::dist::task_kind_name(d.task_kind));
    const std::size_t n = sp::dist::task_unit_count(d);
    const sp::dist::UnitRangeRunner runner = sp::dist::make_unit_runner(d);
    sp::dist::TaskResult folded;
    std::size_t next = 0;
    for (const auto& [b, e] :
         {std::pair<std::size_t, std::size_t>{0, 3}, {3, 4}, {4, n}}) {
      runner(b, e,
             [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
               ASSERT_EQ(unit, next);
               ByteReader r(payload);
               sp::dist::TaskResult part =
                   sp::dist::decode_unit(d.task_kind, r);
               r.expect_done();
               sp::dist::fold_unit(folded, next++, std::move(part));
             });
    }
    EXPECT_EQ(next, n);
    EXPECT_TRUE(
        sp::dist::bitwise_equal(folded, sp::dist::run_local_task(d)));
  }
}

TEST(DistEngine, ShardRangeValidatesUpFront) {
  const auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  const auto wl = sp::dist::Workload::make(desc);
  auto exec = wl->exec(desc);
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            3, 3, exec),
               std::invalid_argument);
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            0, 9, exec),
               std::invalid_argument);
  exec.block_width = 0;
  EXPECT_THROW(wl->engine().run_shard_range(desc.n_samples, desc.root_seed,
                                            0, 8, exec),
               std::invalid_argument);
}

// ------------------------------------------------------- coordinator/CLI

TEST(DistCoordinator, ValidatesRangeSizeUpFront) {
  auto desc = small_descriptor("c432", 1024, 128);  // 8 shards
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 9;  // more than the plan holds
  sp::dist::Service svc(opt);
  EXPECT_THROW(svc.submit_local(desc), std::invalid_argument);
  opt.units_per_range = 0;
  opt.max_attempts = 0;
  EXPECT_THROW(sp::dist::Service{opt}, std::invalid_argument);
}

// The acceptance contract: a c3540-class run split across TWO worker
// PROCESSES (localhost TCP) merges to the exact bytes of the
// single-process, single-thread run at the same seed.
TEST(DistEndToEnd, TwoWorkerProcessesMatchLocalBitwise) {
  const auto desc = small_descriptor("c3540", 1024, 128);  // 8 shards
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;  // 4 assignments across 2 workers
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  const pid_t w1 = spawn_worker_process(svc.port());
  const pid_t w2 = spawn_worker_process(svc.port());
  const sp::mc::McResult dist_result = run_request(svc, rid).mc;
  reap(svc, w1);
  reap(svc, w2);

  // Single-process, single-thread reference.
  const auto wl = sp::dist::Workload::make(desc);
  auto exec = wl->exec(desc);
  exec.threads = 1;
  sp::stats::Rng rng(desc.seed);
  const auto local = wl->engine().run(desc.n_samples, rng, exec);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  EXPECT_EQ(dist_result.tp_samples.size(), desc.n_samples);
}

// N=1 over localhost: the degenerate cluster is still exactly the local
// run.
TEST(DistEndToEnd, SingleWorkerProcessMatchesLocalBitwise) {
  const auto desc = small_descriptor("c432", 512, 64);  // 8 shards
  sp::dist::ServiceOptions opt;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  const pid_t w1 = spawn_worker_process(svc.port());
  const sp::mc::McResult dist_result = run_request(svc, rid).mc;
  reap(svc, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// Worker failure: a fake worker handshakes, takes an assignment, and dies.
// The coordinator reassigns the forfeited range to a healthy process and
// the merged result is still bitwise-identical.  The coordinator runs on a
// thread so the failure can be sequenced deterministically BEFORE the
// healthy worker exists.
TEST(DistEndToEnd, WorkerFailureReassignmentStaysBitwiseIdentical) {
  const auto desc = small_descriptor("c432", 1024, 128);
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  sp::mc::McResult dist_result;
  std::thread serving([&] { dist_result = run_request(svc, rid).mc; });

  // Saboteur (inline): hello, read setup, accept one assignment, vanish
  // without producing it.
  {
    auto sock = sp::dist::connect_to("127.0.0.1", svc.port());
    sp::dist::ByteWriter hello;
    hello.u16(sp::dist::kWireVersion);
    hello.u64(1);
    sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    auto welcome = sp::dist::recv_frame(sock);
    ASSERT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
    auto setup = sp::dist::recv_frame(sock);
    ASSERT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
    auto assign = sp::dist::recv_frame(sock);
    ASSERT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
    sock.close();  // forfeits the range
  }

  const pid_t w1 = spawn_worker_process(svc.port());
  serving.join();
  reap(svc, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// A worker whose workload build fails reports kError and contributes
// nothing; the run completes on the healthy worker that arrives after.
TEST(DistEndToEnd, WorkloadRejectionIsReportedNotFatal) {
  const auto desc = small_descriptor("c432", 256, 64);
  sp::dist::ServiceOptions opt;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  sp::mc::McResult dist_result;
  std::thread serving([&] { dist_result = run_request(svc, rid).mc; });

  sp::dist::WorkerOptions wopt;
  wopt.port = svc.port();
  const std::size_t done = sp::dist::run_worker(
      wopt, [](const sp::dist::RunDescriptor&) -> sp::dist::UnitRangeRunner {
        throw std::invalid_argument("injected workload failure");
      });
  EXPECT_EQ(done, 0u);

  const pid_t w1 = spawn_worker_process(svc.port());
  serving.join();
  reap(svc, w1);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, sp::dist::run_local(desc)));
}

// -------------------------------------------------- generic task layer

TEST(DistSerialize, StageCharacterizationRoundTripFuzzIsByteStable) {
  std::mt19937_64 g(777);
  std::normal_distribution<double> d(120.0, 55.0);
  for (int rep = 0; rep < 50; ++rep) {
    sp::sta::StageCharacterization c;
    c.delay = {d(g), std::abs(d(g))};
    c.sigma_inter = std::abs(d(g));
    c.area = std::abs(d(g));
    ByteWriter w;
    sp::dist::write_stage_characterization(w, c);
    EXPECT_EQ(w.bytes().size(), 32u);  // the documented fixed record size
    ByteReader r(w.bytes());
    const auto back = sp::dist::read_stage_characterization(r);
    EXPECT_TRUE(r.done());
    ByteWriter w2;
    sp::dist::write_stage_characterization(w2, back);
    EXPECT_EQ(w.bytes(), w2.bytes());
  }
}

TEST(DistSerialize, GridDescriptorRoundTripCarriesTaskKindAndGrid) {
  const auto d = grid_descriptor("c432", 5);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  ByteReader r(w.bytes());
  const auto back = sp::dist::read_run_descriptor(r);
  r.expect_done();
  EXPECT_EQ(back.task_kind, sp::dist::TaskKind::kSstaGrid);
  EXPECT_EQ(back.workload, d.workload);
  EXPECT_EQ(back.netlist_hash, d.netlist_hash);
  EXPECT_EQ(back.size_grid, d.size_grid);
  // Byte-stable: serialize(deserialize(b)) == b.
  ByteWriter w2;
  sp::dist::write_run_descriptor(w2, back);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

// Every truncated prefix of a v2 descriptor must fail loudly as a
// truncation (or task-kind) error — never parse, never crash.
TEST(DistSerialize, GridDescriptorTruncationFuzzAlwaysThrows) {
  const auto d = grid_descriptor("c432", 3);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_THROW((void)sp::dist::read_run_descriptor(r), std::runtime_error)
        << "prefix of " << len << " bytes parsed";
  }
}

TEST(DistSerialize, UnknownTaskKindIsRejectedAsTaskKindError) {
  auto d = grid_descriptor("c432", 2);
  ByteWriter w;
  sp::dist::write_run_descriptor(w, d);
  auto bytes = w.bytes();
  bytes[0] = 0x07;  // task-kind low byte: unknown kind 7
  bytes[1] = 0x00;
  ByteReader r(bytes);
  try {
    (void)sp::dist::read_run_descriptor(r);
    FAIL() << "unknown task kind parsed";
  } catch (const std::runtime_error& e) {
    // The satellite contract: a clear task-kind error naming what this
    // build knows, not a generic deserialize failure downstream.
    EXPECT_NE(std::string(e.what()).find("task kind"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("ssta-grid"), std::string::npos)
        << e.what();
  }
}

TEST(DistSerialize, HostileGridLaneCountThrowsInsteadOfAllocating) {
  ByteWriter w;
  w.u16(static_cast<std::uint16_t>(sp::dist::TaskKind::kSstaGrid));
  w.str("c432");
  for (int i = 0; i < 6; ++i) w.u64(1);  // hash..block_width
  w.u64(1ULL << 60);                     // claimed lane count
  ByteReader r(w.bytes());
  EXPECT_THROW((void)sp::dist::read_run_descriptor(r), std::runtime_error);
}

TEST(DistSerialize, CharacterizationBlobRejectsBadMagicAndVersion) {
  const auto local = sp::dist::run_local_task(grid_descriptor("c432", 3));
  auto bytes = sp::dist::serialize_characterizations(local.lanes);
  EXPECT_EQ(sp::dist::deserialize_characterizations(bytes).size(), 3u);
  auto corrupt = bytes;
  corrupt[0] ^= 0xff;
  EXPECT_THROW((void)sp::dist::deserialize_characterizations(corrupt),
               std::runtime_error);
  auto future = bytes;
  future[4] = 0x7f;  // version low byte
  EXPECT_THROW((void)sp::dist::deserialize_characterizations(future),
               std::runtime_error);
}

TEST(DistWorkload, GridDescriptorValidation) {
  // Multi-circuit grid workloads are rejected: one grid = one stage.
  {
    auto d = grid_descriptor("c432", 2);
    d.workload = "c432,c880";
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // Empty grid.
  {
    auto d = grid_descriptor("c432", 2);
    d.size_grid.clear();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // A lane that is not a full size vector (empty or wrong length) would
  // silently fall back to rebuilt base sizes on the worker — rejected.
  {
    auto d = grid_descriptor("c432", 2);
    d.size_grid[1].pop_back();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
    d.size_grid[1].clear();
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
  // Hash mismatch (diverging generator builds).
  {
    auto d = grid_descriptor("c432", 2);
    d.netlist_hash ^= 1;
    EXPECT_THROW(sp::dist::build_grid_stage(d), std::invalid_argument);
  }
}

// A NaN size or output_load used to pass every grid check, so a worker
// computed NaN lanes and the service cached them.  Descriptor
// finalization, worker setup (make_unit_runner, which also screens remote
// submissions) and the local reference now all refuse such a grid.
TEST(DistWorkload, GridDescriptorRejectsNonFiniteValues) {
  auto nan_lane = grid_descriptor("c432", 3);
  nan_lane.size_grid[1][nan_lane.size_grid[1].size() / 2] = std::nan("");
  auto nan_load = grid_descriptor("c432", 3);
  nan_load.output_load = std::nan("");
  for (const auto* d : {&nan_lane, &nan_load}) {
    EXPECT_THROW(sp::dist::build_grid_stage(*d), std::invalid_argument);
    auto again = *d;
    EXPECT_THROW(sp::dist::finalize_descriptor(again), std::invalid_argument);
    EXPECT_THROW((void)sp::dist::make_unit_runner(*d), std::invalid_argument);
    EXPECT_THROW((void)sp::dist::run_local_task(*d), std::invalid_argument);
  }
}

TEST(DistCluster, WorkloadNameForVerifiesStructure) {
  auto nl = sp::netlist::iscas_like("c432");
  EXPECT_EQ(sp::dist::workload_name_for(nl), "c432");
  // Resizing is fine — grids carry explicit size lanes.
  auto sizes = nl.sizes();
  for (double& s : sizes) s *= 1.3;
  nl.set_sizes(sizes);
  EXPECT_EQ(sp::dist::workload_name_for(nl), "c432");
  // A structural edit (not just sizes) must be rejected.
  sp::netlist::Netlist renamed = sp::netlist::iscas_like("c880");
  renamed.set_name("c432_like");
  EXPECT_THROW(sp::dist::workload_name_for(renamed), std::invalid_argument);
}

// The grid acceptance contract: a sweep grid split across TWO worker
// PROCESSES reassembles to the exact bytes of the local characterize_grid
// run — both the run_local_task reference and a caller-side call at the
// same grid.
TEST(DistEndToEnd, TwoWorkerSstaGridMatchesLocalBatchBitwise) {
  const auto desc = grid_descriptor("c432", 17);
  sp::dist::ServiceOptions opt;
  // Raised to one 8-lane block per range: 3 assignments (8/8/1, the last
  // a one-lane walk) across 2 workers.
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  const pid_t w1 = spawn_worker_process(svc.port());
  const pid_t w2 = spawn_worker_process(svc.port());
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, w1);
  reap(svc, w2);

  ASSERT_EQ(dist_result.kind, sp::dist::TaskKind::kSstaGrid);
  ASSERT_EQ(dist_result.lanes.size(), desc.size_grid.size());
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));

  // And against a direct local call, the way an optimizer would see it.
  const auto nl = sp::netlist::iscas_like("c432");
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::sta::SstaOptions sopt;
  sopt.output_load = desc.output_load;
  const auto direct = sp::sta::characterize_grid(
      nl, model, desc.size_grid, sp::dist::descriptor_spec(desc), sopt);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result.lanes, direct));
}

// A grid range holds at least one whole lane block: units_per_range = 2
// cuts a 20-lane grid into 8/8/4 lanes, not ten 2-lane ranges, and the
// lanes still reassemble to the local bytes.
TEST(DistEndToEnd, GridRangesHoldWholeLaneBlocks) {
  const auto desc = grid_descriptor("c432", 20);
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  const pid_t w1 = spawn_worker_process(svc.port());
  const pid_t w2 = spawn_worker_process(svc.port());
  svc.run([&] { return svc.local_done(rid); });
  const sp::dist::RunMetrics m = svc.local_metrics(rid);
  svc.shutdown_workers();
  svc.drain_backlog();
  const sp::dist::TaskResult dist_result = svc.take_local_result(rid);
  reap(svc, w1);
  reap(svc, w2);

  EXPECT_EQ(m.units, 20u);
  EXPECT_EQ(m.ranges, 3u);
  EXPECT_EQ(m.commits, 3u);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// A non-default technology must replay exactly on the worker: the
// descriptor carries the delay model's parameters, so a grid submitted
// from a tweaked-technology optimizer is not silently characterized with
// registry defaults.
TEST(DistEndToEnd, NonDefaultTechnologyCrossesTheWire) {
  sp::process::Technology tech;
  tech.tau_ps = 5.5;   // slower inverter
  tech.alpha = 1.45;   // different velocity-saturation index
  auto desc = grid_descriptor("c432", 4);
  sp::dist::set_descriptor_technology(desc, tech);

  sp::dist::ServiceOptions opt;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  const pid_t w1 = spawn_worker_process(svc.port());
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, w1);

  const sp::device::AlphaPowerModel model{tech};
  const auto nl = sp::netlist::iscas_like("c432");
  sp::sta::SstaOptions sopt;
  sopt.output_load = desc.output_load;
  const auto direct = sp::sta::characterize_grid(
      nl, model, desc.size_grid, sp::dist::descriptor_spec(desc), sopt);
  EXPECT_TRUE(sp::dist::bitwise_equal(dist_result.lanes, direct));
  // And the tweaked technology actually changes the numbers (the test
  // would be vacuous if defaults happened to match).
  const sp::device::AlphaPowerModel default_model{sp::process::Technology{}};
  const auto with_defaults = sp::sta::characterize_grid(
      nl, default_model, desc.size_grid, sp::dist::descriptor_spec(desc),
      sopt);
  EXPECT_FALSE(sp::dist::bitwise_equal(dist_result.lanes, with_defaults));
}

// Worker failure on a grid task: a saboteur takes a lane range and dies;
// the reassigned reassembly is still bitwise-identical.
TEST(DistEndToEnd, SstaGridWorkerFailureReassignmentStaysBitwise) {
  const auto desc = grid_descriptor("c432", 24);
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;  // raised to 8: 3 lane ranges, one forfeited
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);

  sp::dist::TaskResult dist_result;
  std::thread serving([&] { dist_result = run_request(svc, rid); });

  {
    auto sock = sp::dist::connect_to("127.0.0.1", svc.port());
    sp::dist::ByteWriter hello;
    hello.u16(sp::dist::kWireVersion);
    hello.u64(1);
    sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    auto welcome = sp::dist::recv_frame(sock);
    ASSERT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
    auto setup = sp::dist::recv_frame(sock);
    ASSERT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
    auto assign = sp::dist::recv_frame(sock);
    ASSERT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
    sock.close();  // forfeits the lane range
  }

  const pid_t w1 = spawn_worker_process(svc.port());
  serving.join();
  reap(svc, w1);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// The tentpole acceptance contract: opt::area_delay_sweep with its grid
// submitted to a 2-process cluster — WITH an injected worker failure
// mid-run — produces bitwise-identical results to the single-process
// characterize_grid path.
TEST(DistEndToEnd, DistributedSweepWithWorkerFailureMatchesLocalBitwise) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;

  sp::opt::SweepOptions sw;
  sw.points = 6;

  // Local reference first (the hook left empty = local path).
  sp::netlist::Netlist nl_local = sp::netlist::iscas_like("c432");
  const auto local = sp::opt::area_delay_sweep(nl_local, model, spec, sw);

  // Cluster-backed sweep: the hook serves each grid on its own Service,
  // sabotaged by a fake worker that takes a range and dies before two
  // healthy worker processes finish the job.
  sw.grid = [](const sp::netlist::Netlist& nl,
               const sp::device::AlphaPowerModel& hook_model,
               const std::vector<std::vector<double>>& grid,
               const sp::process::VariationSpec& sp_spec,
               const sp::sta::SstaOptions& sopt) {
    sp::dist::RunDescriptor d;
    d.task_kind = sp::dist::TaskKind::kSstaGrid;
    d.workload = sp::dist::workload_name_for(nl);
    d.size_grid = grid;
    sp::dist::set_descriptor_technology(d, hook_model.technology());
    sp::dist::set_descriptor_spec(d, sp_spec);
    d.output_load = sopt.output_load;
    sp::dist::finalize_descriptor(d);

    sp::dist::ServiceOptions copt;
    copt.units_per_range = 2;
    copt.idle_timeout_ms = 120000;
    sp::dist::Service svc(copt);
    const std::uint64_t rid = svc.submit_local(d);

    sp::dist::TaskResult res;
    std::thread serving([&] { res = run_request(svc, rid); });
    {
      auto sock = sp::dist::connect_to("127.0.0.1", svc.port());
      sp::dist::ByteWriter hello;
      hello.u16(sp::dist::kWireVersion);
      hello.u64(1);
      sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
      auto welcome = sp::dist::recv_frame(sock);
      EXPECT_TRUE(welcome && welcome->type == sp::dist::MsgType::kWelcome);
      auto setup = sp::dist::recv_frame(sock);
      EXPECT_TRUE(setup && setup->type == sp::dist::MsgType::kSetup);
      auto assign = sp::dist::recv_frame(sock);
      EXPECT_TRUE(assign && assign->type == sp::dist::MsgType::kAssign);
      sock.close();  // forfeits the range
    }
    const pid_t w1 = spawn_worker_process(svc.port());
    const pid_t w2 = spawn_worker_process(svc.port());
    serving.join();
    reap(svc, w1);
    reap(svc, w2);
    return res.lanes;
  };
  sp::netlist::Netlist nl_dist = sp::netlist::iscas_like("c432");
  const auto dist_sweep = sp::opt::area_delay_sweep(nl_dist, model, spec, sw);

  EXPECT_TRUE(sp::opt::bitwise_equal(dist_sweep, local));
  // The sweep leaves the netlist at the fastest point; both paths must
  // agree on that too.
  EXPECT_EQ(nl_dist.sizes(), nl_local.sizes());
}

// The public cluster API end to end: grid_characterizer over a
// ClusterHandle that spawns and reaps its own localhost fleet matches the
// local sweep.
TEST(DistEndToEnd, ClusterGridCharacterizerMatchesLocalSweep) {
  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;

  sp::opt::SweepOptions sw;
  sw.points = 5;
  sp::netlist::Netlist nl_local = sp::netlist::iscas_like("c880");
  const auto local = sp::opt::area_delay_sweep(nl_local, model, spec, sw);

  sp::dist::ClusterOptions cl;
  cl.coordinator.idle_timeout_ms = 120000;
  cl.spawn_workers = 2;
  cl.worker_bin = STATPIPE_WORKER_BIN;
  sp::dist::ClusterHandle handle(cl);
  sw.grid = sp::dist::grid_characterizer(
      [&](const sp::dist::RunDescriptor& d) { return handle.submit(d); });
  sp::netlist::Netlist nl_dist = sp::netlist::iscas_like("c880");
  const auto dist_sweep = sp::opt::area_delay_sweep(nl_dist, model, spec, sw);

  EXPECT_TRUE(sp::opt::bitwise_equal(dist_sweep, local));
}

// The optimizer runs its per-stage sweeps in parallel, so one cluster
// hook sees concurrent calls: four threads, four circuits, one handle,
// all released at once, six grids each.  The hook serializes them onto
// the handle, and every result is the local batch's bytes.  Unserialized,
// one caller's event loop can consume another's frames and strand it in
// poll until the idle timeout: that fails its request, or at least costs
// the full timeout, which the elapsed-time check catches.
TEST(DistEndToEnd, ConcurrentGridHookCallsMatchLocalBitwise) {
  constexpr int kIdleMs = 20000;
  sp::dist::ClusterOptions cl;
  cl.coordinator.idle_timeout_ms = kIdleMs;
  cl.spawn_workers = 2;
  cl.worker_bin = STATPIPE_WORKER_BIN;
  sp::dist::ClusterHandle handle(cl);
  const sp::sta::GridCharacterizer hook = sp::dist::grid_characterizer(
      [&](const sp::dist::RunDescriptor& d) { return handle.submit(d); });

  const sp::device::AlphaPowerModel model{sp::process::Technology{}};
  sp::process::VariationSpec spec;
  spec.sigma_vth_inter = 0.020;
  spec.sigma_vth_systematic = 0.0;
  const sp::sta::SstaOptions sopt;
  const std::vector<std::string> names = {"c880", "c1355", "c1908", "c2670"};
  constexpr std::size_t kRounds = 6;
  std::vector<sp::netlist::Netlist> nls;
  for (const std::string& name : names)
    nls.push_back(sp::netlist::iscas_like(name));
  // Caller i's round-r grid: eight scaled lanes, distinct per round so no
  // call is answered from the result cache.
  auto grid_for = [&](std::size_t i, std::size_t r) {
    std::vector<std::vector<double>> grid(8, nls[i].sizes());
    for (std::size_t k = 0; k < grid.size(); ++k)
      for (double& s : grid[k])
        s *= 1.0 + 0.1 * static_cast<double>(k) + 0.01 * static_cast<double>(r);
    return grid;
  };

  std::vector<std::vector<std::vector<sp::sta::StageCharacterization>>> got(
      names.size(), decltype(got)::value_type(kRounds));
  std::latch start(static_cast<std::ptrdiff_t>(names.size()));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> callers;
  for (std::size_t i = 0; i < names.size(); ++i)
    callers.emplace_back([&, i] {
      start.arrive_and_wait();
      try {
        for (std::size_t r = 0; r < kRounds; ++r)
          got[i][r] = hook(nls[i], model, grid_for(i, r), spec, sopt);
      } catch (const std::exception& e) {
        ADD_FAILURE() << names[i] << ": " << e.what();
      }
    });
  for (std::thread& t : callers) t.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - t0)
                .count(),
            kIdleMs);

  for (std::size_t i = 0; i < names.size(); ++i)
    for (std::size_t r = 0; r < kRounds; ++r)
      EXPECT_TRUE(sp::dist::bitwise_equal(
          got[i][r], sp::sta::characterize_grid(nls[i], model, grid_for(i, r),
                                                spec, sopt)))
          << names[i] << " round " << r;
}

// ------------------------------------------------------- hmac primitives

sp::dist::Digest hex_digest(const std::string& hex) {
  sp::dist::Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(2 * i, 2), nullptr, 16));
  return d;
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(DistHmac, Sha256KnownAnswerVectors) {
  // FIPS 180-4 / NIST CAVP vectors: empty, one block, two blocks, and a
  // long input that crosses many block boundaries.
  EXPECT_EQ(sp::dist::sha256(bytes_of("")),
            hex_digest("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934c"
                       "a495991b7852b855"));
  EXPECT_EQ(sp::dist::sha256(bytes_of("abc")),
            hex_digest("ba7816bf8f01cfea414140de5dae2223b00361a396177a9c"
                       "b410ff61f20015ad"));
  EXPECT_EQ(
      sp::dist::sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      hex_digest("248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd4"
                 "19db06c1"));
  const std::vector<std::uint8_t> million(1000000, 'a');
  EXPECT_EQ(sp::dist::sha256(million),
            hex_digest("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e"
                       "046d39ccc7112cd0"));
}

// The known-answer message generator (tests/sha256_kat.inc's `pat`).
std::vector<std::uint8_t> kat_pattern(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>((i * 2654435761ULL) >> 13);
  return out;
}

// Python hashlib digests of every prefix length 0..130 (both tail block
// counts and every padding boundary) and of a 2.2 MB message, the size of
// a 160-lane c3540 grid descriptor.  On x86 hosts with the SHA extensions
// these run the SHA-NI compress, elsewhere the portable one.
TEST(DistHmac, Sha256MatchesHashlibAtEveryTailLength) {
  const char* const kat[] = {
#include "sha256_kat.inc"
  };
  const std::vector<std::uint8_t> msg = kat_pattern(std::size(kat) - 1);
  for (std::size_t n = 0; n < std::size(kat); ++n)
    EXPECT_EQ(sp::dist::sha256(std::span(msg.data(), n)), hex_digest(kat[n]))
        << n << " bytes";
  EXPECT_EQ(sp::dist::sha256(kat_pattern(2200013)),
            hex_digest("36dcdea73f1b5e4e30362ae68573bed38b3c38df168e918e"
                       "a94dc8eca396787a"));
}

TEST(DistHmac, HmacSha256Rfc4231Vectors) {
  // RFC 4231 test cases 1-3 (short keys) and 6-7 (keys longer than the
  // 64-byte block, which must be hashed first per RFC 2104).
  EXPECT_EQ(sp::dist::hmac_sha256(std::vector<std::uint8_t>(20, 0x0b),
                                  bytes_of("Hi There")),
            hex_digest("b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da7"
                       "26e9376c2e32cff7"));
  EXPECT_EQ(sp::dist::hmac_sha256(bytes_of("Jefe"),
                                  bytes_of("what do ya want for nothing?")),
            hex_digest("5bdcc146bf60754e6a042426089575c75a003f089d273983"
                       "9dec58b964ec3843"));
  EXPECT_EQ(sp::dist::hmac_sha256(std::vector<std::uint8_t>(20, 0xaa),
                                  std::vector<std::uint8_t>(50, 0xdd)),
            hex_digest("773ea91e36800e46854db8ebd09181a72959098b3ef8c122"
                       "d9635514ced565fe"));
  EXPECT_EQ(
      sp::dist::hmac_sha256(
          std::vector<std::uint8_t>(131, 0xaa),
          bytes_of("Test Using Larger Than Block-Size Key - Hash Key First")),
      hex_digest("60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f"
                 "0ee37f54"));
  EXPECT_EQ(
      sp::dist::hmac_sha256(
          std::vector<std::uint8_t>(131, 0xaa),
          bytes_of("This is a test using a larger than block-size key and a "
                   "larger than block-size data. The key needs to be hashed "
                   "before being used by the HMAC algorithm.")),
      hex_digest("9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f5153"
                 "5c3a35e2"));
}

TEST(DistHmac, HmacOverAMegabyteMessageMatchesPython) {
  // hmac.new(b"statpipe wire key", pat(1500007), hashlib.sha256): a kSetup
  // frame of a large grid is MACed whole.
  EXPECT_EQ(sp::dist::hmac_sha256(bytes_of("statpipe wire key"),
                                  kat_pattern(1500007)),
            hex_digest("56dc636f910205781b094ebc7f189c8c1af1ec775adfa9c5"
                       "0853ac6d0a0bb5a6"));
}

TEST(DistHmac, ConstantTimeCompareExaminesEveryByte) {
  const sp::dist::Digest a = sp::dist::sha256(bytes_of("left"));
  EXPECT_TRUE(sp::dist::digest_equal_consttime(a, a));
  // A single flipped bit at ANY position must be detected.
  for (std::size_t i = 0; i < a.size(); ++i) {
    sp::dist::Digest b = a;
    b[i] ^= 0x01;
    EXPECT_FALSE(sp::dist::digest_equal_consttime(a, b)) << "byte " << i;
  }
}

TEST(DistHmac, FrameAuthDerivesKeyFromPassphrase) {
  EXPECT_FALSE(sp::dist::FrameAuth::from_passphrase("").enabled);
  const auto auth = sp::dist::FrameAuth::from_passphrase("open sesame");
  EXPECT_TRUE(auth.enabled);
  // The wire key is the SHA-256 of the passphrase, not its raw bytes.
  EXPECT_EQ(auth.key, sp::dist::sha256(bytes_of("open sesame")));
  // MACs are deterministic per key and differ across keys.
  const auto other = sp::dist::FrameAuth::from_passphrase("different");
  const auto data = bytes_of("frame bytes");
  EXPECT_EQ(auth.mac(data), auth.mac(data));
  EXPECT_NE(auth.mac(data), other.mac(data));
}

// --------------------------------------------- transport authentication

std::pair<sp::dist::Socket, sp::dist::Socket> socket_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {sp::dist::Socket(fds[0]), sp::dist::Socket(fds[1])};
}

TEST(DistAuthTransport, AuthenticatedFrameRoundTrips) {
  const auto auth = sp::dist::FrameAuth::from_passphrase("round-trip");
  ByteWriter payload;
  payload.u64(42);
  payload.str("unit body");
  // The trailer costs exactly one digest on the wire.
  EXPECT_EQ(sp::dist::encode_frame(sp::dist::MsgType::kResult,
                                   payload.bytes(), auth)
                .size(),
            sp::dist::encode_frame(sp::dist::MsgType::kResult,
                                   payload.bytes())
                    .size() +
                sp::dist::kDigestSize);
  auto [a, b] = socket_pair();
  sp::dist::send_frame(a, sp::dist::MsgType::kResult, payload.bytes(), auth);
  const auto f = sp::dist::recv_frame(b, auth);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, sp::dist::MsgType::kResult);
  EXPECT_EQ(f->payload, payload.bytes());
}

// The strong tamper property: with authentication on, EVERY single-bit
// flip anywhere in the frame — header, payload, or MAC trailer — must be
// rejected, because the MAC covers header + payload and the trailer
// itself is compared constant-time.
TEST(DistAuthTransport, EveryBitFlipOnAuthenticatedFrameIsRejected) {
  const auto auth = sp::dist::FrameAuth::from_passphrase("flip-key");
  ByteWriter payload;
  payload.u64(3);
  payload.str("streamed unit");
  const std::vector<std::uint8_t> frame = sp::dist::encode_frame(
      sp::dist::MsgType::kResult, payload.bytes(), auth);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto [a, b] = socket_pair();
      std::vector<std::uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      a.send_all(mutated.data(), mutated.size());
      a.close();  // a size-inflating flip must hit EOF, not block
      EXPECT_THROW((void)sp::dist::recv_frame(b, auth), std::runtime_error)
          << "flip of bit " << bit << " in byte " << byte << " was accepted";
    }
  }
}

TEST(DistAuthTransport, MissingOrUnexpectedAuthIsRejectedBothWays) {
  const auto key = sp::dist::FrameAuth::from_passphrase("strict");
  {
    // Unauthenticated frame at a keyed receiver: no silent downgrade.
    auto [a, b] = socket_pair();
    sp::dist::send_frame(a, sp::dist::MsgType::kHello, {});
    try {
      (void)sp::dist::recv_frame(b, key);
      FAIL() << "unauthenticated frame accepted under a wire key";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unauthenticated"),
                std::string::npos)
          << e.what();
    }
  }
  {
    // Authenticated frame at a keyless receiver: a loud config mismatch,
    // not an ignored trailer.
    auto [a, b] = socket_pair();
    sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}, key);
    try {
      (void)sp::dist::recv_frame(b);
      FAIL() << "authenticated frame accepted without a wire key";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("no wire key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(DistAuthTransport, WrongKeyFailsVerification) {
  const auto alpha = sp::dist::FrameAuth::from_passphrase("alpha");
  const auto beta = sp::dist::FrameAuth::from_passphrase("beta");
  auto [a, b] = socket_pair();
  sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}, alpha);
  EXPECT_THROW((void)sp::dist::recv_frame(b, beta), std::runtime_error);
}

// ----------------------------------------------- transport hardening

TEST(DistTransportHardening, UnknownFlagBitsAreRejected) {
  auto [a, b] = socket_pair();
  std::vector<std::uint8_t> frame =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, {});
  frame[8] |= 0x02;  // flags field, an undefined bit
  a.send_all(frame.data(), frame.size());
  a.close();
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "unknown flag bits accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("flag"), std::string::npos)
        << e.what();
  }
}

// Mutation fuzz over an unauthenticated frame: any single-bit corruption
// either still parses at the frame layer (payload bits — upper layers
// validate content) or throws std::runtime_error.  Nothing may crash,
// hang, or throw anything untyped.
TEST(DistTransportHardening, FrameMutationFuzzParsesOrThrows) {
  ByteWriter payload;
  payload.u16(sp::dist::kWireVersion);
  payload.u64(4);
  const std::vector<std::uint8_t> frame =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, payload.bytes());
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto [a, b] = socket_pair();
      std::vector<std::uint8_t> mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      a.send_all(mutated.data(), mutated.size());
      a.close();
      try {
        if (sp::dist::recv_frame(b))
          ++parsed;
        else
          ++rejected;  // clean-EOF reading (possible for a header flip)
      } catch (const std::runtime_error&) {
        ++rejected;
      }
    }
  }
  // Both populations must exist: header corruption is caught, payload
  // corruption is the upper layers' job.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);
}

TEST(DistTransportHardening, ReadDeadlineUnwedgesSilentMidFramePeer) {
  auto [a, b] = socket_pair();
  const std::uint32_t magic = sp::dist::kWireMagic;
  a.send_all(&magic, sizeof magic);  // 4 plausible bytes, then silence
  b.set_read_deadline_ms(300);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)sp::dist::recv_frame(b);
    FAIL() << "read of a stalled frame returned";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

// A slow-loris drip defeats plain receive timeouts (every byte restarts
// them) but not the absolute deadline.
TEST(DistTransportHardening, ReadDeadlineBoundsSlowLorisDrip) {
  auto [a, b] = socket_pair();
  std::atomic<bool> stop{false};
  std::thread drip([&] {
    const std::uint8_t byte = 0x53;
    try {
      for (int i = 0; i < 100 && !stop.load(); ++i) {
        a.send_all(&byte, 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
      }
    } catch (const std::exception&) {
    }
  });
  b.set_read_deadline_ms(400);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)sp::dist::recv_frame(b), std::runtime_error);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  stop = true;
  drip.join();
}

TEST(DistTransportHardening, FaultPlanChunksAndBudgetsAreByteExact) {
  // Chunked + delayed delivery still reassembles the exact frame.
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.max_chunk = 3;
    plan.delay_us_per_chunk = 100;
    a.set_fault_plan(&plan);
    ByteWriter payload;
    for (std::uint64_t i = 0; i < 40; ++i) payload.u64(i);
    sp::dist::send_frame(a, sp::dist::MsgType::kResult, payload.bytes());
    const auto f = sp::dist::recv_frame(b);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload, payload.bytes());
  }
  // Budget 0: the connection dies before the first byte — a clean EOF at
  // a frame boundary for the receiver (nullopt, not a throw).
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = 0;
    a.set_fault_plan(&plan);
    try {
      sp::dist::send_frame(a, sp::dist::MsgType::kHello, {});
      FAIL() << "send past an exhausted budget succeeded";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("budget"), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(sp::dist::recv_frame(b).has_value());
  }
  // Budget 10: ten header bytes cross, then the cut — a mid-frame EOF the
  // receiver must surface as an error, never a short parse.
  {
    auto [a, b] = socket_pair();
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = 10;
    a.set_fault_plan(&plan);
    EXPECT_THROW(sp::dist::send_frame(a, sp::dist::MsgType::kHello, {}),
                 std::runtime_error);
    EXPECT_THROW((void)sp::dist::recv_frame(b), std::runtime_error);
  }
}

// --------------------------------------------- deterministic fault matrix

// An inline protocol-honest worker whose socket runs through a
// dist::testing::FaultPlan.  With a byte-exact send budget the
// conversation cuts at a chosen offset (before hello, mid-hello, at the
// hello/result boundary, mid-result ...); with chunk caps and delays it
// exercises the partial-IO paths end to end while staying honest.
void faulty_worker(std::uint16_t port, sp::dist::testing::FaultPlan plan) {
  try {
    sp::dist::Socket sock = sp::dist::connect_to("127.0.0.1", port);
    sock.set_fault_plan(&plan);
    sock.set_recv_timeout_ms(60000);
    {
      ByteWriter hello;
      hello.u16(sp::dist::kWireVersion);
      hello.u64(1);
      sp::dist::send_frame(sock, sp::dist::MsgType::kHello, hello.bytes());
    }
    const auto welcome = sp::dist::recv_frame(sock);
    if (!welcome || welcome->type != sp::dist::MsgType::kWelcome) return;
    std::uint64_t session = 0;
    {
      ByteReader r(welcome->payload);
      session = r.u64();
      r.expect_done();
    }
    const auto setup = sp::dist::recv_frame(sock);
    if (!setup || setup->type != sp::dist::MsgType::kSetup) return;
    const std::uint64_t rid = setup->request_id;
    sp::dist::RunDescriptor desc;
    {
      ByteReader r(setup->payload);
      desc = sp::dist::read_run_descriptor(r);
      r.expect_done();
    }
    const sp::dist::UnitRangeRunner runner = sp::dist::make_unit_runner(desc);
    for (;;) {
      const auto f = sp::dist::recv_frame(sock);
      if (!f || f->type != sp::dist::MsgType::kAssign) return;  // shutdown
      ByteReader r(f->payload);
      const std::uint64_t begin = r.u64();
      const std::uint64_t end = r.u64();
      std::uint64_t emitted = 0;
      runner(begin, end,
             [&](std::size_t unit, const std::vector<std::uint8_t>& payload) {
               ByteWriter out;
               out.u64(unit);
               out.append(payload);
               sp::dist::send_frame(sock, sp::dist::MsgType::kResult,
                                    out.bytes(), {}, session, rid);
               emitted += 1;
             });
      ByteWriter done;
      done.u64(begin);
      done.u64(end);
      done.u64(emitted);
      sp::dist::send_frame(sock, sp::dist::MsgType::kRangeDone, done.bytes(),
                           {}, session, rid);
    }
  } catch (const std::exception&) {
    // Budget exhaustion, or the coordinator dropping us after the cut:
    // both are the matrix's expected outcomes.
  }
}

// The satellite matrix: deterministic byte-exact disconnects at each
// stage of the conversation — before hello, inside the hello header,
// exactly at the hello/result frame boundary, inside the first result's
// header, and inside its payload.  Every case must end with the range
// reassigned to the healthy worker and the bitwise-identical result.
TEST(DistFaultMatrix, ByteExactDisconnectsAlwaysReassign) {
  const auto desc = small_descriptor();  // 8 units
  ByteWriter hello;
  hello.u16(sp::dist::kWireVersion);
  hello.u64(1);
  const std::size_t hello_bytes =
      sp::dist::encode_frame(sp::dist::MsgType::kHello, hello.bytes()).size();
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  const std::size_t budgets[] = {0, 7, hello_bytes, hello_bytes + 7,
                                 hello_bytes + 120};
  for (const std::size_t budget : budgets) {
    SCOPED_TRACE("send budget " + std::to_string(budget));
    sp::dist::ServiceOptions opt;
    opt.units_per_range = 2;
    opt.idle_timeout_ms = 120000;
    sp::dist::Service svc(opt);
    const std::uint64_t rid = svc.submit_local(desc);
    sp::dist::TaskResult dist_result;
    std::thread serving([&] { dist_result = run_request(svc, rid); });
    sp::dist::testing::FaultPlan plan;
    plan.send_byte_budget = budget;
    std::thread faulty([&, port = svc.port()] { faulty_worker(port, plan); });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const pid_t w = spawn_worker_process(svc.port());
    serving.join();
    faulty.join();
    reap(svc, w);
    EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  }
}

// Short reads, short writes and delayed bytes on an HONEST worker change
// nothing: the run completes bitwise-identical through 3-byte chunks.
TEST(DistFaultMatrix, ChunkedAndDelayedIoStaysBitwise) {
  const auto desc = small_descriptor();
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 3;
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  sp::dist::TaskResult dist_result;
  std::thread serving([&] { dist_result = run_request(svc, rid); });
  sp::dist::testing::FaultPlan plan;
  plan.max_chunk = 3;
  plan.delay_us_per_chunk = 50;
  std::thread chunked([&, port = svc.port()] { faulty_worker(port, plan); });
  serving.join();
  chunked.join();
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// ------------------------------------------------- authenticated cluster

TEST(DistEndToEnd, AuthenticatedTwoWorkerRunMatchesLocalBitwise) {
  const std::string key = "e2e-wire-key";
  const auto desc = small_descriptor();
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  opt.auth_key = key;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  const pid_t w1 = spawn_worker_process(svc.port(), key);
  const pid_t w2 = spawn_worker_process(svc.port(), key);
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, w1);
  reap(svc, w2);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

TEST(DistEndToEnd, MismatchedKeyWorkerIsRejectedAndRunStillCompletes) {
  const auto desc = small_descriptor();
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  opt.auth_key = "right-key";
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  // The wrong-key worker's hello fails MAC verification at admission; it
  // sees the connection close and exits 1 ("coordinator sent no setup").
  const pid_t bad = spawn_worker_process(svc.port(), "wrong-key");
  const pid_t good = spawn_worker_process(svc.port(), "right-key");
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, bad, 1);
  reap(svc, good);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

TEST(DistEndToEnd, AuthenticatedWorkerAgainstPlainCoordinatorIsRejected) {
  const auto desc = small_descriptor();
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;  // no auth_key: plain wire
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  // Symmetric strictness: an authenticated hello at a keyless coordinator
  // is a loud config mismatch, not an ignored trailer.
  const pid_t keyed = spawn_worker_process(svc.port(), "stray-key");
  const pid_t plain = spawn_worker_process(svc.port());
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, keyed, 1);
  reap(svc, plain);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// ----------------------------------------------- streaming (wire v3)

// One assignment far larger than the worker's streaming chunk: 64 units
// stream over the same connection as many kResult frames and fold into
// the bounded accumulator — bitwise-identical to the local run.
TEST(DistEndToEnd, LargeStreamedRangeSingleWorkerMatchesLocalBitwise) {
  const auto desc = small_descriptor("c432", 4096, 64);  // 64 units
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 64;  // a single streamed assignment
  opt.idle_timeout_ms = 120000;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  const pid_t w = spawn_worker_process(svc.port());
  const sp::dist::TaskResult dist_result = run_request(svc, rid);
  reap(svc, w);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

// -------------------------------------------------- hostile-peer matrix

// Each saboteur mode attacks a live coordinator that also serves one
// honest worker.  Contract (docs/WIRE_FORMAT.md threat model): the
// coordinator never crashes or hangs, never folds a poisoned unit, the
// saboteur's range is reassigned, and the result stays bitwise-identical.
// The saboteur process itself exits 0 — it verifies its own expectations
// (e.g. that the coordinator actually dropped it).
TEST(DistChaos, SaboteurMatrixOnPlainWireNeverPoisonsTheRun) {
  // Both kinds (8 units, 4 ranges below each): the saboteur attacks MC
  // shard staging and grid lane staging alike.
  for (const auto& desc : {small_descriptor(), grid_descriptor("c432", 8)}) {
    const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
    const char* modes[] = {"truncate", "midframe", "oversize",
                           "garbage",  "dup-unit", "replay"};
    for (const char* mode : modes) {
      SCOPED_TRACE(std::string(sp::dist::task_kind_name(desc.task_kind)) +
                   " " + mode);
      sp::dist::ServiceOptions opt;
      opt.units_per_range = 2;
      opt.idle_timeout_ms = 120000;
      sp::dist::Service svc(opt);
      const std::uint64_t rid = svc.submit_local(desc);
      sp::dist::TaskResult dist_result;
      std::thread serving([&] { dist_result = run_request(svc, rid); });
      // Saboteur first, so it wins a range assignment to attack with.
      const pid_t sab = spawn_saboteur_process(svc.port(), mode);
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      const pid_t w = spawn_worker_process(svc.port());
      serving.join();
      reap(svc, sab);
      reap(svc, w);
      EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
    }
  }
}

TEST(DistChaos, AuthenticatedWireRejectsTamperedAndUnauthenticatedPeers) {
  const auto desc = small_descriptor();
  const sp::dist::TaskResult local = sp::dist::run_local_task(desc);
  const std::string key = "chaos-wire-key";
  const char* modes[] = {"tampered-hmac", "unauthenticated"};
  for (const char* mode : modes) {
    SCOPED_TRACE(mode);
    sp::dist::ServiceOptions opt;
    opt.units_per_range = 2;
    opt.idle_timeout_ms = 120000;
    opt.auth_key = key;
    sp::dist::Service svc(opt);
    const std::uint64_t rid = svc.submit_local(desc);
    sp::dist::TaskResult dist_result;
    std::thread serving([&] { dist_result = run_request(svc, rid); });
    const bool sab_has_key = std::string(mode) == "tampered-hmac";
    const pid_t sab = spawn_saboteur_process(svc.port(), mode,
                                             sab_has_key ? key : "");
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    const pid_t w = spawn_worker_process(svc.port(), key);
    serving.join();
    reap(svc, sab);
    reap(svc, w);
    EXPECT_TRUE(sp::dist::bitwise_equal(dist_result, local));
  }
}

// The read-deadline regression test (satellite): a peer that takes a
// range, sends four bytes and then stalls forever must forfeit the range
// after read_deadline_ms — run() completes with the correct result
// instead of wedging on the silent connection.
TEST(DistChaos, StalledPeerForfeitsRangeViaReadDeadline) {
  const auto desc = small_descriptor();
  sp::dist::ServiceOptions opt;
  opt.units_per_range = 2;
  opt.idle_timeout_ms = 120000;
  opt.read_deadline_ms = 1500;
  sp::dist::Service svc(opt);
  const std::uint64_t rid = svc.submit_local(desc);
  sp::dist::TaskResult dist_result;
  const auto t0 = std::chrono::steady_clock::now();
  std::thread serving([&] { dist_result = run_request(svc, rid); });
  const pid_t sab = spawn_saboteur_process(svc.port(), "stall");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const pid_t w = spawn_worker_process(svc.port());
  serving.join();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  reap(svc, w);
  // The stalled saboteur holds its connection open until killed.
  ::kill(sab, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(sab, &status, 0), sab);
  EXPECT_TRUE(WIFSIGNALED(status));
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            60);
  EXPECT_TRUE(
      sp::dist::bitwise_equal(dist_result, sp::dist::run_local_task(desc)));
}

}  // namespace
