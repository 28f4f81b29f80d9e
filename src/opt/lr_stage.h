// The LR sizer's option check and lane engine, private to src/opt:
// size_stage, size_stage_grid and size_pipeline_simultaneous use them
// (defined in sizer.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sta/ssta.h"

namespace statpipe::opt {

/// Throws std::invalid_argument unless the per-gate update knobs are
/// usable: 0 < min_size <= max_size, damping in (0,1], softmax_theta_ps > 0
/// and output_load >= 0 (NaN fails every check).  Both solvers call it.
void validate_sizer_options(const SizerOptions& opt);

/// One stage's LR step over L size vectors ("lanes") of one netlist, stored
/// gate-major and lane-minor like SstaBatch's lane arrays: gate g's L sizes
/// sit at [g*L, (g+1)*L).  Each iteration calls evaluate(), which visits
/// every gate once in topological order, fold_ssta(), then update(), which
/// moves every running lane's sizes from the values evaluate() left.  Every
/// per-gate loop runs the lanes innermost, and lane k executes exactly the
/// one-lane sequence: the lanes are independent sizings sharing one walk.
/// kLanes > 0 fixes L at compile time (size_stage and
/// size_pipeline_simultaneous run one lane); kLanes == 0 takes it at run
/// time (size_stage_grid).  The netlist supplies the structure only: the
/// sizes live here.
template <std::size_t kLanes>
class LrStage {
 public:
  /// Every lane starts at nl's sizes.  `z` scales each gate's sigma in its
  /// padded deterministic arrival.
  LrStage(const netlist::Netlist& nl, const device::AlphaPowerModel& model,
          const process::VariationSpec& spec, const SizerOptions& opt,
          double z, std::size_t lanes = kLanes);

  std::size_t lanes() const noexcept {
    if constexpr (kLanes > 0) return kLanes;
    return lanes_;
  }

  /// Every gate's lane sizes, gate-major.
  const std::vector<double>& sizes() const noexcept { return size_; }

  /// Evaluates every gate at the current sizes: its load, nominal delay
  /// and delay sigmas, once each per lane.  They give the deterministic
  /// arrival padded with z*sigma/sqrt(depth) (the statistical effect of [3])
  /// and the gate's canonical delay.
  void evaluate();

  /// Each lane's canonical SSTA of the stage from evaluate()'s per-gate
  /// delays, written to `out` (sta::fold_ssta_lanes; consumes the delays,
  /// so call at most once per evaluate()).
  void fold_ssta(const sta::CanonicalLanes& out) {
    sta::fold_ssta_lanes(nl_, delay_, out);
  }

  /// out[k] = lane k's total cell area (Netlist::total_area's sum).
  void area(double* out) const;

  /// Criticality weights from evaluate()'s arrivals, then the closed-form
  /// Gauss-Seidel size update of each lane with running[k] set, under
  /// multiplier lambda[k]; the other lanes keep their sizes.  A gate's load
  /// is evaluate()'s: its fanouts come later in topological order, so they
  /// still have the sizes it was evaluated at.
  void update(const double* lambda, const char* running);

 private:
  void criticality_weights();
  /// exps_[i*L + k] = exp((arrival of ids[i] - lane max) / theta) in lane
  /// k, and sum_[k] their sum over i.
  void softmax_terms(const std::vector<netlist::GateId>& ids);

  const netlist::Netlist& nl_;
  const std::vector<netlist::Gate>& gates_;
  const std::vector<netlist::GateId>& topo_;
  const device::AlphaPowerModel& model_;
  const process::VariationSpec& spec_;
  const SizerOptions& opt_;
  double z_;
  double sqrt_depth_;
  std::size_t lanes_;
  std::vector<double> size_, load_, arrival_, weight_;  // gate-major lanes
  sta::CanonicalLaneArrays delay_;
  std::vector<double> in_, amax_, sum_, pred_, exps_;   // lane scratch
};

}  // namespace statpipe::opt
