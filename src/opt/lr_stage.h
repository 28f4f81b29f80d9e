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
#include "sta/size_lanes.h"

namespace statpipe::opt {

/// Throws std::invalid_argument unless the per-gate update knobs are
/// usable: 0 < min_size <= max_size, damping in (0,1], softmax_theta_ps > 0
/// and output_load >= 0 (NaN fails every check).  Both solvers call it.
void validate_sizer_options(const SizerOptions& opt);

/// One stage's LR step over L size lanes of one netlist: the lane
/// evaluator (sta::SizeLanes, at the yield's z) plus the criticality
/// weights and the size update.  Each iteration calls evaluate(),
/// fold_ssta(), then update(), which moves every running lane's sizes from
/// the values evaluate() left; lane k executes exactly the one-lane
/// sequence.  size_stage and size_pipeline_simultaneous run one lane
/// (kLanes == 1), size_stage_grid a run-time count (kLanes == 0).
template <std::size_t kLanes>
class LrStage : public sta::SizeLanes<kLanes> {
 public:
  /// Every lane starts at nl's sizes.  `z` scales each gate's sigma in its
  /// padded deterministic arrival.
  LrStage(const netlist::Netlist& nl, const device::AlphaPowerModel& model,
          const process::VariationSpec& spec, const SizerOptions& opt,
          double z, std::size_t lanes = kLanes);

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
  const SizerOptions& opt_;
  double tau_;
  std::vector<double> weight_;                   // gate-major lanes
  std::vector<double> amax_, sum_, pred_, exps_;  // lane scratch
};

}  // namespace statpipe::opt
