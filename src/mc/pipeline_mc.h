// Monte-Carlo simulation of pipeline delay — the verification reference the
// analytical model is judged against (paper section 2.4), replacing the
// authors' SPICE testbench.
//
// Two granularities:
//  * StageLevelMonteCarlo — samples the model's one-factor stage delays
//    (core::PipelineModel::stage_factors: one die-shared normal plus one
//    private normal per stage) and takes the max.  Verifies the Clark
//    reduction itself, exactly as eq. (2) defines yield.
//  * GateLevelMonteCarlo — samples process parameters per die (one shared
//    inter-die draw, one spatially-correlated systematic field spanning all
//    stages laid out along the die, independent RDF per gate), runs sample
//    STA on every stage netlist, adds latch overhead, and takes the max.
//    This is the full "silicon" reference: it knows nothing about
//    Gaussians, Clark, or stage decompositions.
//
// Both engines execute on the sharded sim layer: n_samples is partitioned
// into fixed-size shards, each shard draws from its own counter-derived RNG
// stream and reuses a pooled per-shard workspace (die block, STA lane
// arena, batch normal buffers), and shard results merge in ascending shard
// order.  For a given seed the result is bitwise-identical at any thread
// count.
//
// The gate-level engine runs every die in SoA lane blocks: each shard
// consumes DieBlocks of exec.block_width dies, its last
// count % block_width dies as one narrower block, through
// process::VariationSampler::sample_block_into and
// sta::critical_delay_sample_block.  Each call binds every stage once
// (sta::bind_stage, at the stage's current sizes) and its shards share the
// bindings read-only.  Every sample's RNG stream is keyed on its
// shard-local index (shard_rng.fork(k)), not on draw position, and each
// lane of a block executes exactly the scalar sample() + analyze_sample
// sequence on its die — so for a given seed the result is ALSO
// bitwise-identical at any block width.
//
// Layer contract (src/mc, see docs/ARCHITECTURE.md): owns Monte-Carlo
// verification of pipeline delay.  May depend on everything below core's
// optimizers (stats, process, device, netlist, sta, sim) plus the
// analytical core::PipelineModel it verifies; must not depend on src/opt —
// the optimizers call MC, never the reverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline_model.h"
#include "device/latch.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "sta/sta.h"
#include "stats/descriptive.h"
#include "stats/gaussian.h"
#include "stats/rng.h"

namespace statpipe::mc {

/// Result of a pipeline MC run.  Shard results combine exactly via merge().
struct McResult {
  std::string label;                             ///< run name (error messages)
  std::vector<double> tp_samples;                ///< pipeline delay draws [ps]
  std::vector<stats::RunningStats> stage_stats;  ///< per-stage delay stats

  /// Appends another run's samples and folds its per-stage accumulators.
  /// Throws std::invalid_argument on stage-count mismatch or self-merge
  /// (which would double-count every sample).  Note the fold is a left
  /// fold with a defined order everywhere in the library: RunningStats
  /// merging is only approximately associative in floating point, so
  /// reducing shards in any other shape than ascending-order left fold
  /// forfeits bitwise reproducibility.
  void merge(McResult&& other);

  stats::Gaussian tp_estimate() const;           ///< sample (mu, sigma)
  double yield_at(double t_target) const;        ///< fraction <= target
  /// 95% CI half-width of the yield estimate at t_target.
  double yield_ci95(double t_target) const;
};

/// Samples the analytical stage model in its one-factor form and takes
/// T_P = max_i SD_i.  Per die it draws n + 1 standard normals from the
/// shard stream, Z then e_1..e_n, and sets
/// SD_i = mean_i + shared_i * Z + independent_i * e_i — exact at any
/// correlation, rho = 1 included, with no factorization and O(n) per die.
class StageLevelMonteCarlo {
 public:
  explicit StageLevelMonteCarlo(const core::PipelineModel& model);

  /// Draws n_samples dies.  `rng` advances by exactly one engine draw (the
  /// run key); all sample draws come from per-shard child streams, so the
  /// result depends on (seed, n_samples, exec.samples_per_shard) but never
  /// on exec.threads.
  McResult run(std::size_t n_samples, stats::Rng& rng,
               const sim::ExecutionOptions& exec = {}) const;

 private:
  McResult run_shard(const sim::Shard& shard, const stats::Rng& root) const;

  std::vector<core::StageFactors> factors_;
};

/// Full gate-level reference simulation.
class GateLevelMonteCarlo {
 public:
  /// Stage netlists are laid out left-to-right along the die; stage i's
  /// gates occupy die segment [i/N, (i+1)/N] so the systematic field
  /// correlates neighbouring stages more than distant ones.  Throws
  /// std::invalid_argument on no or null stages, and unless
  /// sta_opt.output_load is finite and >= 0.
  GateLevelMonteCarlo(std::vector<const netlist::Netlist*> stages,
                      const device::AlphaPowerModel& model,
                      const process::VariationSpec& spec,
                      const device::LatchModel& latch,
                      const sta::StaOptions& sta_opt = {});

  /// Same determinism contract as StageLevelMonteCarlo::run, strengthened
  /// for the block path: the result depends on (seed, n_samples,
  /// exec.samples_per_shard) but never on exec.threads or exec.block_width.
  /// Throws std::invalid_argument on exec.block_width outside
  /// [1, stats::lanes::max_width()] of the active SIMD backend (validated
  /// up front, never clamped).  Stages are bound at their sizes when the
  /// call starts, so a set_sizes between two runs is seen by the second.
  McResult run(std::size_t n_samples, stats::Rng& rng,
               const sim::ExecutionOptions& exec = {}) const;

  /// Distributed building block: plans the exact shard set run() plans for
  /// (n_samples, exec.samples_per_shard) and executes only the contiguous
  /// subrange [shard_begin, shard_end) on the local pool, returning one
  /// UNMERGED McResult per shard in ascending shard order.  `root_seed` is
  /// the run key — run() derives it as rng.fork().seed(), and a remote
  /// caller that folds every shard's part in ascending shard order
  /// reproduces run()'s result bit for bit, no matter how the shard space
  /// was split across processes or machines.  Same validation and
  /// determinism contract as run(); throws std::invalid_argument on an
  /// empty or out-of-bounds range.
  std::vector<McResult> run_shard_range(std::size_t n_samples,
                                        std::uint64_t root_seed,
                                        std::size_t shard_begin,
                                        std::size_t shard_end,
                                        const sim::ExecutionOptions& exec =
                                            {}) const;

  std::size_t stage_count() const noexcept { return stages_.size(); }

 private:
  /// Pooled per-shard scratch: block sampling buffers, the SoA STA lane
  /// arena every stage shares, per-lane RNG streams and the stage-major
  /// delay block.
  struct ShardScratch {
    std::vector<stats::Rng> lane_rngs;
    stats::RngBlock rng_block;          // SoA lane streams for latch draws
    std::vector<double> latch_dvth;     // [width] per-lane latch-site shift
    std::vector<double> latch_overhead; // [width] per-lane latch overhead
    process::DieBlock block;
    process::BlockWorkspace block_ws;
    sta::StaBlockWorkspace sta_ws;
    std::vector<double> stage_delay;  // [stage][lane], stage-major
  };

  McResult run_shard(const sim::Shard& shard, const stats::Rng& root,
                     std::size_t block_width,
                     const std::vector<sta::BoundStage>& bound) const;

  std::vector<const netlist::Netlist*> stages_;
  const device::AlphaPowerModel* model_;
  process::VariationSpec spec_;
  device::LatchModel latch_;
  sta::StaOptions sta_opt_;
  // site_maps_ and latch_sites_ come before sampler_: the sampler's
  // initializer fills them from the same layout pass that yields its sites.
  std::vector<std::vector<std::size_t>> site_maps_;  // per stage: gate -> site
  std::vector<std::size_t> latch_sites_;       // site of each stage's latch
  process::VariationSampler sampler_;          // all sites, all stages
  mutable sim::WorkspacePool<ShardScratch> scratch_;  // sim-owned workspaces
};

}  // namespace statpipe::mc
