#include "opt/global_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/characterized_pipeline.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sta/ssta_batch.h"
#include "stats/gaussian.h"

namespace statpipe::opt {

GlobalPipelineOptimizer::GlobalPipelineOptimizer(
    std::vector<netlist::Netlist*> stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch)
    : stages_(std::move(stages)), model_(&model), spec_(spec), latch_(latch) {
  if (stages_.empty())
    throw std::invalid_argument("GlobalPipelineOptimizer: no stages");
  for (auto* s : stages_)
    if (s == nullptr)
      throw std::invalid_argument("GlobalPipelineOptimizer: null stage");
}

core::PipelineModel GlobalPipelineOptimizer::current_model() const {
  return model_from(characterize_stages(sta::SstaOptions{}.output_load));
}

std::vector<sta::StageCharacterization>
GlobalPipelineOptimizer::characterize_stages(double output_load) const {
  // Same characterization build_pipeline_ssta runs internally, so at the
  // default load the assembled model is bitwise build_pipeline_ssta's.
  for (const netlist::Netlist* nl : stages_) (void)nl->topological_order();
  std::vector<sta::StageCharacterization> cs(stages_.size());
  sim::parallel_for(stages_.size(), [&](std::size_t i) {
    cs[i] = sta::characterize_ssta(*stages_[i], *model_, spec_,
                                   {.output_load = output_load});
  });
  return cs;
}

core::PipelineModel GlobalPipelineOptimizer::model_from(
    const std::vector<sta::StageCharacterization>& cs) const {
  std::vector<const netlist::Netlist*> views(stages_.begin(), stages_.end());
  return core::assemble_pipeline(views, cs, latch_, spec_);
}

core::PipelineModel GlobalPipelineOptimizer::optimize_individually(
    double t_target, double pipeline_yield_target, const SizerOptions& sizer) {
  // Per-stage yield requirement from eq. (12): y_i = Y^(1/N).
  const double y_stage = std::pow(
      pipeline_yield_target, 1.0 / static_cast<double>(stages_.size()));
  const double latch_overhead = latch_.timing().nominal_overhead();
  if (t_target - latch_overhead <= 0.0)
    throw std::invalid_argument(
        "optimize_individually: latch overhead exceeds target");
  // Every stage sizes against only its own netlist: the per-stage solves
  // are independent and fan out over the sim engine.
  sim::parallel_for(stages_.size(), [&](std::size_t i) {
    netlist::Netlist* nl = stages_[i];
    SizerOptions so = sizer;
    so.yield_target = y_stage;
    // The stage's combinational budget excludes the latch overhead.
    so.t_target = t_target - latch_overhead;
    const auto r = size_stage(*nl, *model_, spec_, so);
    if (!r.feasible) {
      // The stage cannot meet its per-stage yield at this target: push it
      // to its fastest sizing (deterministic best effort, the same point a
      // designer's max-effort run lands on) rather than leaving it at a
      // trajectory-dependent intermediate.
      SizerOptions fastest = so;
      fastest.t_target = 1e-3;
      (void)size_stage(*nl, *model_, spec_, fastest);
    }
  });
  return model_from(characterize_stages(sizer.output_load));
}

GlobalOptimizerResult GlobalPipelineOptimizer::optimize(
    const GlobalOptimizerOptions& opt) {
  const double latch_overhead = latch_.timing().nominal_overhead();
  const double comb_target = opt.t_target - latch_overhead;
  if (!(std::isfinite(opt.t_target) && comb_target > 0.0))
    throw std::invalid_argument(
        "optimize: t_target not finite or within the latch overhead");
  if (!(opt.yield_target > 0.0 && opt.yield_target < 1.0))
    throw std::invalid_argument("optimize: yield_target outside (0,1)");

  // The one timing state: stage characterizations at the current sizes and
  // the sizer's load.  Adopting a candidate writes its own grid lane here,
  // bitwise what characterize_stages() would recompute from scratch.
  const std::size_t n = stages_.size();
  std::vector<sta::StageCharacterization> cs =
      characterize_stages(opt.sizer.output_load);
  const double z = stats::normal_icdf(opt.sizer.yield_target);
  auto d_stat = [&](std::size_t i) {
    return cs[i].delay.mean + z * cs[i].delay.sigma;
  };

  // The one candidate path: stage i sized at every target as lanes of one
  // sizer walk, characterized in one grid call, and scored by pipeline
  // yield with the lane substituted into a copy of cs.  Returns, in target
  // order, the cheapest candidate whose yield reaches y_goal, else the one
  // with the best yield above y_floor, else nothing.  Changes nothing.
  struct Candidate {
    std::vector<double> sizes;
    sta::StageCharacterization stage;  // at `sizes`
    double yield = 0.0;
  };
  auto best_candidate = [&](std::size_t i, const std::vector<double>& targets,
                            double y_goal,
                            double y_floor) -> std::optional<Candidate> {
    std::vector<std::vector<double>> sizes;
    for (auto& lane :
         size_stage_grid(*stages_[i], *model_, spec_, opt.sizer, targets))
      sizes.push_back(std::move(lane.sizes));
    const auto chars = sta::characterize_grid(
        *stages_[i], *model_, sizes, spec_,
        {.output_load = opt.sizer.output_load}, opt.grid);
    const std::size_t none = sizes.size();
    std::vector<double> yield(none);
    auto trial = cs;
    std::size_t best = none;
    for (std::size_t k = 0; k < none; ++k) {
      trial[i] = chars[k];
      yield[k] = model_from(trial).yield(opt.t_target);
      if (yield[k] >= y_goal &&
          (best == none || chars[k].area < chars[best].area))
        best = k;
    }
    if (best == none)
      for (std::size_t k = 0; k < none; ++k)
        if (yield[k] > (best == none ? y_floor : yield[best])) best = k;
    if (best == none) return std::nullopt;
    return Candidate{std::move(sizes[best]), chars[best], yield[best]};
  };

  // --- step 1: area-delay curves + elasticities at current operating point.
  // Each stage's sweep runs on a private copy of its netlist, so all stages
  // evaluate concurrently with nothing to save/restore.
  std::vector<double> elasticity(n, 1.0);
  {
    static const obs::SpanId kSweeps("opt.global.sweeps");
    obs::ScopedSpan span(kSweeps, static_cast<std::int64_t>(n));
    sim::parallel_for(n, [&](std::size_t i) {
      netlist::Netlist work = *stages_[i];
      SweepOptions sw = opt.sweep;
      sw.sizer = opt.sizer;
      try {
        const auto sweep = area_delay_sweep(work, *model_, spec_, sw);
        elasticity[i] = sweep.curve.elasticity_at(d_stat(i));
      } catch (const std::runtime_error&) {
        elasticity[i] = 1.0;  // flat/degenerate curve: treat as neutral
      }
    });
  }

  // --- snapshot "before" state; final_model stays it if the guard reverts.
  const core::PipelineModel before = model_from(cs);
  GlobalOptimizerResult result{
      .stages = {}, .pipeline_yield_before = before.yield(opt.t_target),
      .pipeline_yield_after = 0.0, .total_area_before = before.total_area(),
      .total_area_after = 0.0, .final_model = before};
  for (std::size_t i = 0; i < n; ++i) {
    StageReport r;
    r.name = stages_[i]->name();
    r.area_before = stages_[i]->total_area();
    r.yield_before = before.stage_delay(i).cdf(opt.t_target);
    r.elasticity = elasticity[i];
    result.stages.push_back(std::move(r));
  }

  // --- step 2: order stages by their area-delay-curve position (eq. 14).
  // Yield mode: increasing R_i — cheap yield (receivers) is bought first.
  // Area mode: decreasing R_i — donors shed area first, while the yield
  // headroom bought in the pre-phase still exists.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return opt.mode == OptimizationMode::kEnsureYield
               ? elasticity[a] < elasticity[b]
               : elasticity[a] > elasticity[b];
  });

  // --- snapshot for the final revert-if-worse guard.
  std::vector<std::vector<double>> snapshot;
  for (auto* s : stages_) snapshot.push_back(s->sizes());

  // --- area-mode pre-phase: buy yield headroom on cheap (receiver)
  // stages so the expensive donors can shed more area afterwards.  The
  // paper's Table III shows exactly this pattern: receiver stages raised
  // to ~99% while donors are cut.
  if (opt.mode == OptimizationMode::kMinimizeArea) {
    static const obs::SpanId kPrephase("opt.global.prephase");
    obs::ScopedSpan span(kPrephase);
    const double y_headroom = std::sqrt(opt.yield_target);  // e.g. .80->.894
    for (std::size_t i = 0; i < n; ++i) {
      if (elasticity[i] >= 1.0) continue;  // receivers only
      if (model_from(cs).yield(opt.t_target) >= y_headroom) continue;

      // The speed-up factors; only a candidate that reaches the headroom
      // counts (no fallback).
      std::vector<double> targets;
      for (const double f : {0.97, 0.93, 0.88, 0.82})
        targets.push_back(d_stat(i) * f);
      const auto best = best_candidate(
          i, targets, y_headroom, std::numeric_limits<double>::infinity());
      // Cap the headroom bill: a receiver may spend at most 5% of the
      // pipeline's area here (the savings must come from donors).
      if (best &&
          best->stage.area - cs[i].area <= 0.05 * result.total_area_before) {
        result.stages[i].chosen_for_speedup = best->stage.area != cs[i].area;
        stages_[i]->set_sizes(best->sizes);
        cs[i] = best->stage;
      }
    }
  }

  // --- steps 3-9: size one stage at a time against the global yield.
  //
  // For the chosen stage we scan a deterministic grid of combinational
  // stat-delay targets as candidates and take:
  //  * the cheapest one that meets the pipeline yield goal — kEnsureYield
  //    buys the goal without over-spending, and kMinimizeArea recovers the
  //    most area that still keeps the goal; or
  //  * failing that, the one with the best pipeline yield, as the fallback
  //    speedup later stages must compensate for.
  for (std::size_t round = 0; round < opt.max_outer_rounds; ++round) {
    static const obs::SpanId kRound("opt.global.round");
    obs::ScopedSpan span(kRound, static_cast<std::int64_t>(round));
    bool changed = false;
    for (const std::size_t i : order) {
      const double y_now = model_from(cs).yield(opt.t_target);
      // EnsureYield mode never disturbs a pipeline that already meets the
      // goal — recovering area at the cost of yield is kMinimizeArea's job.
      if (opt.mode == OptimizationMode::kEnsureYield &&
          !(y_now < opt.yield_target))
        continue;

      const double lo = comb_target * 0.3;  // aggressive end
      const double hi = comb_target * 1.5;  // relaxed end
      const std::size_t probes = std::max<std::size_t>(opt.budget_probes, 1);
      static obs::Counter c_probes("opt.global.probes");
      c_probes.add(probes);
      std::vector<double> targets(probes);
      for (std::size_t p = 0; p < probes; ++p)
        targets[p] = lo + (hi - lo) * static_cast<double>(p + 1) /
                              static_cast<double>(probes + 1);
      const auto best = best_candidate(i, targets, opt.yield_target, y_now);
      if (!best) continue;

      // Adopt the chosen candidate only if it helps the current objective.
      // Economy guard: when the pipeline goal was not reached, a fallback
      // speedup must buy a meaningful yield gain, not a fraction of a
      // point for a large area bill.
      const bool reaches_goal = best->yield >= opt.yield_target;
      const bool helps =
          opt.mode == OptimizationMode::kEnsureYield
              ? reaches_goal || best->yield > y_now + 0.005
              : reaches_goal && best->stage.area < cs[i].area - 1e-9;
      if (!helps) continue;
      result.stages[i].chosen_for_speedup = best->stage.area > cs[i].area;
      stages_[i]->set_sizes(best->sizes);
      cs[i] = best->stage;
      changed = true;
    }
    if (!changed) break;
  }

  // --- revert-if-worse guard: the optimized design must not be strictly
  // worse than the input on the mode's own objective.
  core::PipelineModel after = model_from(cs);
  const double y_after = after.yield(opt.t_target);
  const double a_after = after.total_area();
  const bool worse =
      opt.mode == OptimizationMode::kMinimizeArea
          ? (a_after >= result.total_area_before &&
             y_after <= result.pipeline_yield_before) ||
                y_after < opt.yield_target - 1e-9
          : y_after < result.pipeline_yield_before - 1e-9;
  if (worse && (opt.mode != OptimizationMode::kMinimizeArea ||
                result.pipeline_yield_before >= opt.yield_target)) {
    for (std::size_t i = 0; i < n; ++i) stages_[i]->set_sizes(snapshot[i]);
  } else {
    result.final_model = std::move(after);
  }

  // --- final snapshot.
  result.pipeline_yield_after = result.final_model.yield(opt.t_target);
  result.total_area_after = result.final_model.total_area();
  for (std::size_t i = 0; i < n; ++i) {
    result.stages[i].area_after = stages_[i]->total_area();
    result.stages[i].yield_after =
        result.final_model.stage_delay(i).cdf(opt.t_target);
  }
  return result;
}

}  // namespace statpipe::opt
