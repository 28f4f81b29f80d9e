#include "opt/global_optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/characterized_pipeline.h"
#include "obs/telemetry.h"
#include "sim/engine.h"
#include "sta/ssta_batch.h"

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
  std::vector<const netlist::Netlist*> views(stages_.begin(), stages_.end());
  return core::build_pipeline_ssta(views, *model_, spec_, latch_);
}

std::vector<sta::StageCharacterization>
GlobalPipelineOptimizer::characterize_stages() const {
  // Same characterization build_pipeline_ssta runs internally (default
  // CharacterizeOptions), so assembled yields match current_model() bitwise.
  for (const netlist::Netlist* nl : stages_) (void)nl->topological_order();
  std::vector<sta::StageCharacterization> cs(stages_.size());
  sim::parallel_for(stages_.size(), [&](std::size_t i) {
    cs[i] = sta::characterize_ssta(*stages_[i], *model_, spec_, {});
  });
  return cs;
}

double GlobalPipelineOptimizer::yield_from(
    const std::vector<sta::StageCharacterization>& cs, double t_target) const {
  std::vector<const netlist::Netlist*> views(stages_.begin(), stages_.end());
  return core::assemble_pipeline(views, cs, latch_, spec_).yield(t_target);
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
  return current_model();
}

GlobalOptimizerResult GlobalPipelineOptimizer::optimize(
    const GlobalOptimizerOptions& opt) {
  const double latch_overhead = latch_.timing().nominal_overhead();
  const double comb_target = opt.t_target - latch_overhead;
  if (comb_target <= 0.0)
    throw std::invalid_argument("optimize: latch overhead exceeds target");

  // The sizes size_stage reaches on a copy of `nl` at each target, sized as
  // lanes of one sizer walk.
  auto grid_sizes = [&](const netlist::Netlist& nl,
                        const std::vector<double>& targets) {
    std::vector<std::vector<double>> sizes;
    for (auto& lane : size_stage_grid(nl, *model_, spec_, opt.sizer, targets))
      sizes.push_back(std::move(lane.sizes));
    return sizes;
  };

  // --- step 1: area-delay curves + elasticities at current operating point.
  // Each stage's sweep runs on a private copy of its netlist, so all stages
  // evaluate concurrently with nothing to save/restore.
  const std::size_t n = stages_.size();
  std::vector<double> elasticity(n, 1.0);
  sim::parallel_for(n, [&](std::size_t i) {
    netlist::Netlist work = *stages_[i];
    const double d_now = stat_delay(work, *model_, spec_,
                                    opt.sizer.yield_target,
                                    opt.sizer.output_load);
    SweepOptions sw = opt.sweep;
    sw.yield_target = opt.sizer.yield_target;
    try {
      const auto sweep = area_delay_sweep(work, *model_, spec_, sw);
      elasticity[i] = sweep.curve.elasticity_at(d_now);
    } catch (const std::runtime_error&) {
      elasticity[i] = 1.0;  // flat/degenerate curve: treat as neutral
    }
  });

  // --- snapshot "before" state.
  GlobalOptimizerResult result{.stages = {},
                               .pipeline_yield_before = 0.0,
                               .pipeline_yield_after = 0.0,
                               .total_area_before = 0.0,
                               .total_area_after = 0.0,
                               .final_model = current_model()};
  {
    const auto before = current_model();
    result.pipeline_yield_before = before.yield(opt.t_target);
    result.total_area_before = before.total_area();
    for (std::size_t i = 0; i < n; ++i) {
      StageReport r;
      r.name = stages_[i]->name();
      r.area_before = stages_[i]->total_area();
      r.yield_before = before.stage_delay(i).cdf(opt.t_target);
      r.elasticity = elasticity[i];
      result.stages.push_back(std::move(r));
    }
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

  // Stage characterizations at the current sizes, maintained incrementally
  // through both phases below: only an adopted candidate changes a stage's
  // sizes, and its refreshed entry is the candidate's own batched SSTA lane
  // — bitwise what characterize_stages() would recompute from scratch.
  std::vector<sta::StageCharacterization> cs = characterize_stages();

  // --- area-mode pre-phase: buy yield headroom on cheap (receiver)
  // stages so the expensive donors can shed more area afterwards.  The
  // paper's Table III shows exactly this pattern: receiver stages raised
  // to ~99% while donors are cut.
  if (opt.mode == OptimizationMode::kMinimizeArea) {
    const double y_headroom = std::sqrt(opt.yield_target);  // e.g. .80->.894
    for (std::size_t i = 0; i < n; ++i) {
      if (elasticity[i] >= 1.0) continue;  // receivers only
      netlist::Netlist& nl = *stages_[i];
      const std::vector<double> saved = nl.sizes();
      const double area0 = nl.total_area();
      const double y0 = yield_from(cs, opt.t_target);
      if (y0 >= y_headroom) continue;

      const double d_now = stat_delay(nl, *model_, spec_,
                                      opt.sizer.yield_target,
                                      opt.sizer.output_load);
      // Evaluate the speed-up factors as independent candidates: each sizes
      // a copy of the stage, all as lanes of one sizer walk; the grid's
      // SSTA then runs as one batch (one topological walk, one size lane
      // per factor), and each lane scores the pipeline by substituting
      // into the cached characterizations.
      static constexpr double kFactors[] = {0.97, 0.93, 0.88, 0.82};
      constexpr std::size_t kNf = std::size(kFactors);
      std::vector<double> targets;
      for (const double f : kFactors) targets.push_back(d_now * f);
      const auto cand_sizes = grid_sizes(nl, targets);
      const auto cand_chars =
          sta::characterize_grid(nl, *model_, cand_sizes, spec_, {}, opt.grid);
      const sta::StageCharacterization cs_saved = cs[i];
      double best_area = std::numeric_limits<double>::infinity();
      std::size_t best_j = kNf;  // sentinel: no candidate met the headroom
      for (std::size_t j = 0; j < kNf; ++j) {
        cs[i] = cand_chars[j];
        const double yield = yield_from(cs, opt.t_target);
        if (yield >= y_headroom && cand_chars[j].area < best_area) {
          best_area = cand_chars[j].area;
          best_j = j;
        }
      }
      // Cap the headroom bill: a receiver may spend at most 5% of the
      // pipeline's area here (the savings must come from donors).
      if (best_j != kNf && best_area - area0 <= 0.05 * result.total_area_before) {
        nl.set_sizes(cand_sizes[best_j]);
        cs[i] = cand_chars[best_j];
        if (nl.total_area() != area0) result.stages[i].chosen_for_speedup = true;
      } else {
        nl.set_sizes(saved);
        cs[i] = cs_saved;
      }
    }
  }

  // --- steps 3-9: size one stage at a time against the global yield.
  //
  // For the chosen stage we scan a deterministic grid of combinational
  // stat-delay targets; every grid point sizes a private copy of the stage
  // (all of them lanes of one sizer walk) and scores pipeline yield with
  // the copy substituted.  Selection then picks, in
  // fixed target order:
  //  * the cheapest (minimum-area) candidate that meets the pipeline yield
  //    goal — kEnsureYield buys the goal without over-spending, and
  //    kMinimizeArea recovers the most area that still keeps the goal; or
  //  * failing that, the candidate with the best pipeline yield, as the
  //    fallback speedup later stages must compensate for.
  for (std::size_t round = 0; round < opt.max_outer_rounds; ++round) {
    bool changed = false;
    for (std::size_t oi = 0; oi < n; ++oi) {
      const std::size_t i = order[oi];
      netlist::Netlist& nl = *stages_[i];

      // The incrementally-maintained characterizations serve both the y_now
      // evaluation and the candidate substitutions below.
      const double y_now = yield_from(cs, opt.t_target);
      const bool need_speed = y_now < opt.yield_target;
      // EnsureYield mode never disturbs a pipeline that already meets the
      // goal — recovering area at the cost of yield is kMinimizeArea's job.
      if (opt.mode == OptimizationMode::kEnsureYield && !need_speed) continue;

      const std::vector<double> saved = nl.sizes();
      const double area_before_stage = nl.total_area();

      const double lo = comb_target * 0.3;  // aggressive end
      const double hi = comb_target * 1.5;  // relaxed end
      const std::size_t probes = std::max<std::size_t>(opt.budget_probes, 1);
      static obs::Counter c_probes("opt.global.probes");
      c_probes.add(probes);
      std::vector<double> targets(probes);
      for (std::size_t p = 0; p < probes; ++p)
        targets[p] = lo + (hi - lo) * static_cast<double>(p + 1) /
                              static_cast<double>(probes + 1);
      const auto probe_sizes = grid_sizes(nl, targets);
      // One batched SSTA over the whole probe grid (the changed stage's K
      // size lanes); each lane's pipeline yield substitutes that lane into
      // the cached characterizations of the unchanged stages.
      const auto grid_chars =
          sta::characterize_grid(nl, *model_, probe_sizes, spec_, {}, opt.grid);
      const sta::StageCharacterization cs_saved = cs[i];
      std::vector<double> grid_yield(probes);
      for (std::size_t p = 0; p < probes; ++p) {
        cs[i] = grid_chars[p];
        grid_yield[p] = yield_from(cs, opt.t_target);
      }

      // Deterministic selection in grid order.
      std::size_t best_p = probes;  // sentinel: no candidate chosen
      double best_area = std::numeric_limits<double>::infinity();
      bool found_meeting = false;
      for (std::size_t p = 0; p < probes; ++p) {
        if (grid_yield[p] >= opt.yield_target &&
            grid_chars[p].area < best_area) {
          best_area = grid_chars[p].area;
          best_p = p;
          found_meeting = true;
        }
      }
      if (!found_meeting) {
        double best_y = y_now;
        for (std::size_t p = 0; p < probes; ++p) {
          if (grid_yield[p] > best_y) {
            best_y = grid_yield[p];
            best_p = p;
          }
        }
      }

      // Adopt the chosen candidate only if it helps the current objective.
      // Its pipeline yield is already in hand as the candidate's lane yield
      // (bitwise what a full rebuild would recompute).
      double y_after = y_now;
      if (best_p != probes) {
        nl.set_sizes(probe_sizes[best_p]);
        cs[i] = grid_chars[best_p];
        y_after = grid_yield[best_p];
      } else {
        cs[i] = cs_saved;
      }
      const double area_after_stage = nl.total_area();

      // Economy guard: when the pipeline goal was not reached, a fallback
      // speedup must buy a meaningful yield gain, not a fraction of a
      // point for a large area bill.
      const bool reaches_goal = y_after >= opt.yield_target;
      const bool worthwhile_fallback = y_after > y_now + 0.005;
      const bool helps =
          opt.mode == OptimizationMode::kEnsureYield
              ? (reaches_goal
                     ? area_after_stage <= area_before_stage + 1e-9 ||
                           y_now < opt.yield_target
                     : worthwhile_fallback)
              : (reaches_goal && area_after_stage < area_before_stage - 1e-9);
      if (!helps) {
        nl.set_sizes(saved);
        cs[i] = cs_saved;
      } else {
        changed = true;
        result.stages[i].chosen_for_speedup =
            area_after_stage > area_before_stage;
      }
    }
    if (!changed) break;
  }

  // --- revert-if-worse guard: the optimized design must not be strictly
  // worse than the input on the mode's own objective.
  {
    const auto m = current_model();
    const double y_after = m.yield(opt.t_target);
    const double a_after = m.total_area();
    const bool worse =
        opt.mode == OptimizationMode::kMinimizeArea
            ? (a_after >= result.total_area_before &&
               y_after <= result.pipeline_yield_before) ||
                  y_after < opt.yield_target - 1e-9
            : y_after < result.pipeline_yield_before - 1e-9;
    if (worse && (opt.mode != OptimizationMode::kMinimizeArea ||
                  result.pipeline_yield_before >= opt.yield_target)) {
      for (std::size_t i = 0; i < n; ++i)
        stages_[i]->set_sizes(snapshot[i]);
    }
  }

  // --- final snapshot.
  result.final_model = current_model();
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
