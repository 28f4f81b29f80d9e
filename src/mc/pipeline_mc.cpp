#include "mc/pipeline_mc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/telemetry.h"

namespace statpipe::mc {

namespace {

// Block-MC phase instrumentation (docs/OBSERVABILITY.md): mc.walk / mc.latch
// / mc.fold bracket the per-block phases below; mc.draw / mc.chol live in
// process::VariationSampler::sample_block_into.  bench/sample_sta_block.cpp
// reads its per-phase numbers from these same spans — one clock, no
// bench-local timers.
const obs::SpanId& span_shard() {
  static const obs::SpanId s("mc.shard");
  return s;
}
const obs::SpanId& span_walk() {
  static const obs::SpanId s("mc.walk");
  return s;
}
const obs::SpanId& span_latch() {
  static const obs::SpanId s("mc.latch");
  return s;
}
const obs::SpanId& span_fold() {
  static const obs::SpanId s("mc.fold");
  return s;
}

}  // namespace

namespace {

std::string run_name(const McResult& r) {
  return r.label.empty() ? std::string("<unnamed>") : r.label;
}

}  // namespace

void McResult::merge(McResult&& other) {
  if (&other == this)
    throw std::invalid_argument(
        "McResult::merge: run '" + run_name(*this) +
        "' merged into itself (would double-count every sample)");
  if (stage_stats.size() != other.stage_stats.size())
    throw std::invalid_argument("McResult::merge: stage count mismatch (" +
                                std::to_string(stage_stats.size()) + " vs " +
                                std::to_string(other.stage_stats.size()) + ")");
  if (label.empty()) label = std::move(other.label);
  tp_samples.insert(tp_samples.end(), other.tp_samples.begin(),
                    other.tp_samples.end());
  for (std::size_t i = 0; i < stage_stats.size(); ++i)
    stage_stats[i].merge(other.stage_stats[i]);
}

stats::Gaussian McResult::tp_estimate() const {
  if (tp_samples.size() < 2)
    throw std::logic_error("McResult::tp_estimate: run '" + run_name(*this) +
                           "' has " + std::to_string(tp_samples.size()) +
                           " sample(s); need >= 2");
  return {stats::mean(tp_samples), stats::stddev(tp_samples)};
}

double McResult::yield_at(double t_target) const {
  if (tp_samples.empty())
    throw std::logic_error("McResult::yield_at: run '" + run_name(*this) +
                           "' is empty");
  return stats::empirical_cdf_at(tp_samples, t_target);
}

double McResult::yield_ci95(double t_target) const {
  if (tp_samples.empty())
    throw std::logic_error("McResult::yield_ci95: run '" + run_name(*this) +
                           "' is empty");
  const double p = yield_at(t_target);
  return 1.96 * stats::proportion_stderr(p, tp_samples.size());
}

// ------------------------------------------------------------ stage level

StageLevelMonteCarlo::StageLevelMonteCarlo(const core::PipelineModel& model) {
  for (std::size_t i = 0; i < model.stage_count(); ++i)
    factors_.push_back(model.stage_factors(i));
}

McResult StageLevelMonteCarlo::run_shard(const sim::Shard& shard,
                                         const stats::Rng& root) const {
  stats::Rng rng = root.fork(shard.index);
  const std::size_t n = factors_.size();
  McResult r;
  r.tp_samples.reserve(shard.count);
  r.stage_stats.resize(n);
  std::vector<double> z;  // per-die draws: Z, then e_1..e_n
  for (std::size_t k = 0; k < shard.count; ++k) {
    rng.normal_fill(z, n + 1);
    double tp = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      const core::StageFactors& f = factors_[i];
      const double sd = f.mean + f.shared * z[0] + f.independent * z[i + 1];
      r.stage_stats[i].add(sd);
      tp = std::max(tp, sd);
    }
    r.tp_samples.push_back(tp);
  }
  return r;
}

McResult StageLevelMonteCarlo::run(std::size_t n_samples, stats::Rng& rng,
                                   const sim::ExecutionOptions& exec) const {
  if (n_samples == 0)
    throw std::invalid_argument("StageLevelMonteCarlo: zero samples");
  exec.validate();  // no block kernel here, but a zero shard size is a bug
  // One engine draw keys the whole run: repeated runs differ, shard streams
  // stay independent of thread scheduling.
  const stats::Rng root = rng.fork();
  McResult r = sim::run_sharded<McResult>(
      n_samples, exec,
      [&](const sim::Shard& s) { return run_shard(s, root); },
      [](McResult& acc, McResult&& part) { acc.merge(std::move(part)); });
  r.label = "stage-level MC";
  return r;
}

// ------------------------------------------------------------- gate level

namespace {

struct Layout {
  std::vector<double> positions;
  std::vector<std::vector<std::size_t>> site_maps;
  std::vector<std::size_t> latch_sites;
};

Layout layout_stages(const std::vector<const netlist::Netlist*>& stages) {
  if (stages.empty())
    throw std::invalid_argument("GateLevelMonteCarlo: no stages");
  Layout l;
  const double n = static_cast<double>(stages.size());
  for (std::size_t s = 0; s < stages.size(); ++s) {
    const netlist::Netlist* nl = stages[s];
    if (nl == nullptr)
      throw std::invalid_argument("GateLevelMonteCarlo: null stage");
    std::vector<std::size_t> map(nl->size());
    for (std::size_t g = 0; g < nl->size(); ++g) {
      map[g] = l.positions.size();
      l.positions.push_back((static_cast<double>(s) + nl->gate(g).position) /
                            n);
    }
    l.site_maps.push_back(std::move(map));
    // The stage's capture latch sits at the stage's right edge.
    l.latch_sites.push_back(l.positions.size());
    l.positions.push_back((static_cast<double>(s) + 1.0) / n);
  }
  return l;
}

}  // namespace

GateLevelMonteCarlo::GateLevelMonteCarlo(
    std::vector<const netlist::Netlist*> stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, const sta::StaOptions& sta_opt)
    : stages_(std::move(stages)),
      model_(&model),
      spec_(spec),
      latch_(latch),
      sta_opt_(sta_opt),
      sampler_([&] {
        Layout l = layout_stages(stages_);
        site_maps_ = std::move(l.site_maps);
        latch_sites_ = std::move(l.latch_sites);
        return process::VariationSampler(model.technology(), spec,
                                         std::move(l.positions));
      }()) {
  // A NaN load would make every output arrival NaN, which the output max
  // then skips; an infinite one makes every sample infinite.
  if (!(std::isfinite(sta_opt_.output_load) && sta_opt_.output_load >= 0.0))
    throw std::invalid_argument("GateLevelMonteCarlo: output_load " +
                                std::to_string(sta_opt_.output_load) +
                                " is not finite and >= 0");
  // Materialize every stage's topological order now so concurrent runs
  // bind read-only on shared netlists (the lazy cache is the one mutable
  // member of Netlist).
  for (const netlist::Netlist* s : stages_) (void)s->topological_order();
}

McResult GateLevelMonteCarlo::run_shard(
    const sim::Shard& shard, const stats::Rng& root, std::size_t block_width,
    const std::vector<sta::BoundStage>& bound) const {
  // Per-sample streams: sample k of this shard draws from
  // shard_rng.fork(k) — die draws first, then the per-stage latch draws —
  // so the values a sample sees depend only on (seed, shard, k), never on
  // how samples are grouped into blocks.  That plus the per-lane bitwise
  // equality of the block kernels makes the run block-width-invariant.
  const stats::Rng shard_rng = root.fork(shard.index);
  obs::ScopedSpan shard_span(span_shard(),
                             static_cast<std::int64_t>(shard.index));
  static obs::Counter c_samples("mc.samples");
  static obs::Counter c_blocks("mc.blocks");
  c_samples.add(shard.count);
  const std::size_t n_stages = stages_.size();
  McResult r;
  r.tp_samples.reserve(shard.count);
  r.stage_stats.resize(n_stages);
  // Sim-owned per-shard arenas: the loop below is allocation-free in
  // steady state (die block, systematic-field batch, arrival lane arena and
  // RNG streams all reused across shards via the workspace pool).
  auto ws = scratch_.acquire();
  ws->lane_rngs.resize(block_width);
  ws->latch_dvth.resize(block_width);
  ws->latch_overhead.resize(block_width);
  ws->stage_delay.resize(n_stages * block_width);

  for (std::size_t k = 0; k < shard.count; k += block_width) {
    // Full blocks, then the shard's last count % block_width dies as one
    // narrower block.
    const std::size_t W = std::min(block_width, shard.count - k);
    c_blocks.add();
    for (std::size_t j = 0; j < W; ++j)
      ws->lane_rngs[j] = shard_rng.fork(k + j);
    sampler_.sample_block_into(ws->lane_rngs.data(), W, ws->block,
                               ws->block_ws);
    {
      obs::ScopedSpan walk_span(span_walk(), static_cast<std::int64_t>(W));
      for (std::size_t s = 0; s < n_stages; ++s)
        sta::critical_delay_sample_block(bound[s], ws->block, ws->sta_ws,
                                         ws->stage_delay.data() + s * W);
    }
    // Latch overheads, lane-batched per stage.  Per lane the draw order is
    // unchanged (stage 0, 1, ... — one normal each, after the die draws);
    // going stage-major merely interleaves the lanes, which no lane's
    // stream can observe.  Latch sees the shared shifts only; its internal
    // RDF is already in LatchTiming::random_sigma_rel (keeps MC consistent
    // with LatchModel::overhead_distribution on the analytical side).
    {
      obs::ScopedSpan latch_span(span_latch(), static_cast<std::int64_t>(W));
      ws->rng_block.pack(ws->lane_rngs.data(), W);
      for (std::size_t s = 0; s < n_stages; ++s) {
        for (std::size_t j = 0; j < W; ++j)
          ws->latch_dvth[j] = ws->block.dvth_shared_at(latch_sites_[s], j);
        latch_.sample_overhead_lanes(ws->latch_dvth.data(), W, ws->rng_block,
                                     ws->latch_overhead.data());
        double* row = ws->stage_delay.data() + s * W;
        for (std::size_t j = 0; j < W; ++j) row[j] += ws->latch_overhead[j];
      }
      ws->rng_block.unpack(ws->lane_rngs.data());
    }
    {
      obs::ScopedSpan fold_span(span_fold(), static_cast<std::int64_t>(W));
      for (std::size_t j = 0; j < W; ++j) {
        double tp = 0.0;
        for (std::size_t s = 0; s < n_stages; ++s) {
          const double sd = ws->stage_delay[s * W + j];
          r.stage_stats[s].add(sd);
          tp = std::max(tp, sd);
        }
        r.tp_samples.push_back(tp);
      }
    }
  }
  return r;
}

std::vector<McResult> GateLevelMonteCarlo::run_shard_range(
    std::size_t n_samples, std::uint64_t root_seed, std::size_t shard_begin,
    std::size_t shard_end, const sim::ExecutionOptions& exec) const {
  if (n_samples == 0)
    throw std::invalid_argument("GateLevelMonteCarlo: zero samples");
  exec.validate(stats::lanes::max_width());
  // Materialize only the assigned subrange: a distributed worker must not
  // rebuild the full O(n_shards) plan for a two-shard assignment.
  const std::vector<sim::Shard> shards = sim::plan_shard_range(
      n_samples, exec.samples_per_shard, shard_begin, shard_end);
  // Bind every stage at its current sizes, once per call; the bindings are
  // read-only, so every shard shares them.
  std::vector<sta::BoundStage> bound;
  bound.reserve(stages_.size());
  for (std::size_t s = 0; s < stages_.size(); ++s)
    bound.push_back(
        sta::bind_stage(*stages_[s], *model_, site_maps_[s], sta_opt_));
  // Rng(root_seed) reconstructs the exact root run() forks: fork(stream_id)
  // depends only on the construction seed, so a remote process holding just
  // the 64-bit key replays every shard's streams bit for bit.
  const stats::Rng root(root_seed);
  return sim::run_shard_subrange<McResult>(
      shards, 0, shards.size(), exec, [&](const sim::Shard& s) {
        return run_shard(s, root, exec.block_width, bound);
      });
}

McResult GateLevelMonteCarlo::run(std::size_t n_samples, stats::Rng& rng,
                                  const sim::ExecutionOptions& exec) const {
  if (n_samples == 0)
    throw std::invalid_argument("GateLevelMonteCarlo: zero samples");
  exec.validate(stats::lanes::max_width());
  const stats::Rng root = rng.fork();
  const std::size_t n_shards =
      sim::shard_count(n_samples, exec.samples_per_shard);
  std::vector<McResult> parts =
      run_shard_range(n_samples, root.seed(), 0, n_shards, exec);
  McResult r = std::move(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) r.merge(std::move(parts[i]));
  r.label = "gate-level MC";
  return r;
}

}  // namespace statpipe::mc
