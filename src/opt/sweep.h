// Area-delay curve extraction: sweep a stage's delay target through the
// statistical sizer and record (delay, area) at each feasible point —
// producing the curves of Fig. 8 that drive the R_i ordering heuristic.
#pragma once

#include <vector>

#include "core/area_delay.h"
#include "core/balance.h"
#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "process/variation.h"
#include "sta/ssta_batch.h"

namespace statpipe::opt {

struct SweepOptions {
  std::size_t points = 12;        ///< number of delay targets to probe
  double yield_target = 0.95;     ///< statistical metric mu + z*sigma
  double slow_factor = 2.0;       ///< slowest target = fastest * slow_factor
  SizerOptions sizer;             ///< inner sizing options (t_target ignored)
  /// Whole-grid characterization backend for the sweep's candidate grids
  /// (an ExecutionOptions-style switch): empty = the local path;
  /// dist::grid_characterizer(...) = submit each grid to a cluster.  Any
  /// backend must honor the bitwise contract in sta/ssta_batch.h, so the
  /// sweep result never depends on this knob (docs/DETERMINISM.md).
  sta::GridCharacterizer grid;
};

struct SweepResult {
  core::AreaDelayCurve curve;               ///< area(delay) polyline
  double min_stat_delay = 0.0;              ///< fastest achievable D_stat
  std::vector<std::vector<double>> sizes;   ///< gate sizes per curve point
};

/// Bit-exact equality of two sweep results (every double compared by its
/// IEEE-754 bit pattern) — the distributed-vs-local acceptance predicate
/// shared by statpipe-run --check-local and tests/test_dist.cpp, kept in
/// one place so the CI gate and the tests can never drift apart.
bool bitwise_equal(const SweepResult& a, const SweepResult& b);

/// Builds the stage's area-delay curve.  Leaves `nl` sized at the *fastest*
/// point.  Throws std::runtime_error if no target is feasible.
SweepResult area_delay_sweep(netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::VariationSpec& spec,
                             const SweepOptions& opt = {});

/// Packages a sweep into a core::StageFamily for BalanceAnalyzer: the
/// area-delay curve re-expressed over *mean* delay, a sigma(mu) model
/// interpolated from per-point SSTA, and the mean inter-die fraction.
/// Restores the netlist's sizes on return.
core::StageFamily stage_family_from_sweep(netlist::Netlist& nl,
                                          const device::AlphaPowerModel& model,
                                          const process::VariationSpec& spec,
                                          const SweepOptions& opt = {});

}  // namespace statpipe::opt
