// The lane evaluator: one netlist's per-gate timing under L size vectors
// ("lanes") in one topological walk — loads, canonical delays, padded
// deterministic arrivals, the lane SSTA fold and the cell area.  The one
// implementation behind both users of size lanes: characterize_grid
// (sta/ssta_batch.h) scores a size grid with it at z = 0, and the LR sizer
// (opt::LrStage, src/opt/lr_stage.h) iterates its size update on it.
#pragma once

#include <cstddef>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/ssta.h"

namespace statpipe::sta {

/// Throws std::invalid_argument, naming the first offending lane (and
/// gate), unless every lane of `size_grid` holds nl.size() sizes, each
/// finite and > 0, and opt.output_load is finite and >= 0.
/// characterize_grid runs it before any lane, and dist::build_grid_stage
/// on every grid descriptor.
void check_size_grid(const netlist::Netlist& nl,
                     const std::vector<std::vector<double>>& size_grid,
                     const SstaOptions& opt);

/// L size vectors of one netlist, stored gate-major and lane-minor: gate
/// g's L sizes sit at [g*L, (g+1)*L).  evaluate() visits every gate once in
/// topological order and computes, per lane, its load (Netlist::load_of's
/// sum), its canonical delay (gate_canonical_delay's values) and its
/// deterministic arrival padded with z*sigma/sqrt(depth) — at z = 0
/// exactly sta::analyze's arrival.  Every per-gate loop runs the lanes
/// innermost, and lane k executes exactly the one-lane sequence, so a lane
/// does not depend on the others or on the block it rides in.  Each
/// evaluate() rewrites every value fold_ssta(), area() and the accessors
/// read, so one evaluator serves any number of size sets; the fold's level
/// schedule and staging are built once, with the evaluator.  kLanes > 0
/// fixes L at compile time; kLanes == 0 takes it at run time.  The netlist
/// supplies the structure only (its topological order must be cached
/// before threads share it); the sizes live here.
template <std::size_t kLanes>
class SizeLanes {
 public:
  /// Every lane starts at nl's sizes.  Throws std::invalid_argument on a
  /// spec process::check_variation_spec rejects, and std::logic_error if
  /// nl's topological order is not sorted by logic level (LevelSchedule).
  SizeLanes(const netlist::Netlist& nl, const device::AlphaPowerModel& model,
            const process::VariationSpec& spec, double output_load, double z,
            std::size_t lanes = kLanes);

  std::size_t lanes() const noexcept {
    if constexpr (kLanes > 0) return kLanes;
    return lanes_;
  }

  /// Every gate's lane sizes; callers may rewrite them between
  /// evaluations.
  std::vector<double>& sizes() noexcept { return size_; }
  const std::vector<double>& sizes() const noexcept { return size_; }

  /// evaluate()'s per-gate lanes: loads, padded arrivals (0 at
  /// pseudo-gates) and canonical delays ({} at pseudo-gates; fold_ssta
  /// turns them into arrivals).
  const std::vector<double>& loads() const noexcept { return load_; }
  const std::vector<double>& arrivals() const noexcept { return arrival_; }
  const CanonicalLaneArrays& delays() const noexcept { return delay_; }

  /// Evaluates every gate at the current sizes, once per lane.
  void evaluate();

  /// Each lane's canonical SSTA of the netlist from evaluate()'s delays,
  /// written to `out` (fold_ssta_lanes over the evaluator's level
  /// schedule; consumes the delays, so call at most once per evaluate()).
  void fold_ssta(const CanonicalLanes& out) {
    fold_ssta_lanes(schedule_, delay_, out);
  }

  /// out[k] = lane k's total cell area (Netlist::total_area's sum).
  void area(double* out) const;

 private:
  const netlist::Netlist& nl_;
  const device::AlphaPowerModel& model_;
  const process::VariationSpec& spec_;
  double output_load_;
  double z_;
  double sqrt_depth_;
  std::size_t lanes_;
  std::vector<double> size_, load_, arrival_;  // gate-major lanes
  CanonicalLaneArrays delay_;
  LevelSchedule schedule_;  // fold_ssta's levels and staging
  std::vector<double> in_;  // lane scratch
};

}  // namespace statpipe::sta
