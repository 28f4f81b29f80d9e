// The LR sizer's option check and per-gate step, private to src/opt:
// size_stage and size_pipeline_simultaneous both use them (defined in
// sizer.cpp).
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sta/ssta.h"

namespace statpipe::opt {

/// Throws std::invalid_argument unless the per-gate update knobs are
/// usable: 0 < min_size <= max_size, damping in (0,1] and
/// softmax_theta_ps > 0 (NaN fails every check).  Both solvers call it.
void validate_sizer_options(const SizerOptions& opt);

/// One stage's per-gate LR step, shared by size_stage and
/// size_pipeline_simultaneous.  Each iteration calls evaluate(), which
/// visits every gate once in topological order, then update(lambda), which
/// moves every size from the values evaluate() left.  Gates are visited
/// serially: the optimizer parallelizes across stages, probes and sweep
/// points, around whole size_stage calls.
class LrStage {
 public:
  /// `z` scales each gate's sigma in its padded deterministic arrival.
  LrStage(netlist::Netlist& nl, const device::AlphaPowerModel& model,
          const process::VariationSpec& spec, const SizerOptions& opt,
          double z);

  /// Evaluates every gate at the current sizes: its load, nominal delay
  /// and delay sigmas, once each.  They give the deterministic arrival
  /// padded with z*sigma/sqrt(depth) (the statistical effect of [3]) and
  /// the gate's canonical delay.
  void evaluate();

  /// Canonical SSTA of the stage from evaluate()'s per-gate delays
  /// (sta::fold_ssta; consumes them, so call at most once per evaluate()).
  sta::CanonicalDelay fold_ssta();

  /// Criticality weights from evaluate()'s arrivals, then the closed-form
  /// Gauss-Seidel size update under multiplier `lambda`.  A gate's load is
  /// evaluate()'s: its fanouts come later in topological order, so they
  /// still have the sizes it was evaluated at.
  void update(double lambda);

 private:
  void criticality_weights();

  netlist::Netlist& nl_;
  const device::AlphaPowerModel& model_;
  const process::VariationSpec& spec_;
  const SizerOptions& opt_;
  double z_;
  double sqrt_depth_;
  std::vector<double> load_, arrival_, weight_, exps_;
  std::vector<sta::CanonicalDelay> delay_;
};

}  // namespace statpipe::opt
