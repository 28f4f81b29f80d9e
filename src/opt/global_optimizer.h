// Global yield-driven pipeline optimization — the Fig. 9 flow.
//
// Divide-and-conquer over stages: instead of sizing all m stages' n gates
// simultaneously (O(m^2 n^2) with the LR sizer), stages are sized one at a
// time (O(m n^2)) while the *pipeline-level* statistical timing (Clark
// reduction over SSTA-characterized stages) is re-evaluated after every
// stage — so each stage's delay budget reflects what the rest of the
// pipeline actually achieves, not an a-priori equal split.
//
// Stage ordering follows the area-delay-curve position heuristic of
// eq. (14): kEnsureYield visits stages in increasing elasticity R_i, so
// cheap yield (receivers, R_i < 1) is bought first; kMinimizeArea visits
// them in decreasing R_i, so donors (R_i > 1) shed area first while the
// yield headroom its pre-phase bought on receivers still exists.
//
// Load rule: optimize() sizes, characterizes and scores every stage at
// opt.sizer.output_load, from one characterization per call kept up to
// date incrementally; optimize_individually() reports at its sizer's load.
//
// Two modes, matching the paper's two result tables:
//  * kEnsureYield (Table II): lift pipeline yield to the target with
//    minimum extra area, starting from individually-optimized stages.
//  * kMinimizeArea (Table III): recover as much area as possible while
//    keeping pipeline yield at/above the target.
//
// Layer contract (src/opt, see docs/ARCHITECTURE.md): the top layer.  Owns
// optimization policy — the LR sizer, area-delay sweeps and this global
// flow — and may depend on every other subsystem.  Nothing in src/ may
// include opt headers; only bench/, examples/ and tests/ sit above it.
#pragma once

#include <string>
#include <vector>

#include "core/pipeline_model.h"
#include "device/latch.h"
#include "netlist/netlist.h"
#include "opt/sizer.h"
#include "opt/sweep.h"
#include "sta/characterize.h"

namespace statpipe::opt {

enum class OptimizationMode { kEnsureYield, kMinimizeArea };

struct GlobalOptimizerOptions {
  double t_target = 200.0;     ///< pipeline delay target A_0 [ps]
  double yield_target = 0.80;  ///< pipeline yield target Y
  OptimizationMode mode = OptimizationMode::kEnsureYield;
  std::size_t max_outer_rounds = 3;   ///< passes over the stage list
  std::size_t budget_probes = 10;     ///< size of each stage's probe grid,
                                      ///< uniform over 0.3-1.5x comb. budget
  SizerOptions sizer;  ///< every sizing optimize() runs, sweeps included
  SweepOptions sweep;  ///< step 1's R_i sweeps; optimize() reads only
                       ///< points, slow_factor and grid
  /// Whole-grid characterization backend for the pre-phase and probe
  /// candidate grids: empty = local sta::characterize_grid,
  /// dist::grid_characterizer(...) = cluster submission.  Never changes
  /// results (the bitwise contract in sta/ssta_batch.h); note it is
  /// separate from sweep.grid, which covers the curve-extraction grids.
  sta::GridCharacterizer grid;
};

struct StageReport {
  std::string name;
  double area_before = 0.0;
  double area_after = 0.0;
  double yield_before = 0.0;  ///< per-stage Pr{SD_i <= T}
  double yield_after = 0.0;
  double elasticity = 0.0;    ///< R_i at the starting point
  bool chosen_for_speedup = false;  ///< receiver (highlighted rows)
};

struct GlobalOptimizerResult {
  std::vector<StageReport> stages;
  double pipeline_yield_before = 0.0;
  double pipeline_yield_after = 0.0;
  double total_area_before = 0.0;
  double total_area_after = 0.0;
  core::PipelineModel final_model;
};

class GlobalPipelineOptimizer {
 public:
  /// Stage netlists are sized in place.
  GlobalPipelineOptimizer(std::vector<netlist::Netlist*> stages,
                          const device::AlphaPowerModel& model,
                          const process::VariationSpec& spec,
                          const device::LatchModel& latch);

  /// Baseline flow: size each stage independently for per-stage yield
  /// Y^(1/N) at the pipeline target (the "Individually Optimized" columns
  /// of Tables II/III).  Returns the pipeline model at sizer.output_load.
  core::PipelineModel optimize_individually(double t_target,
                                            double pipeline_yield,
                                            const SizerOptions& sizer = {});

  /// The Fig. 9 global flow.  Call after optimize_individually (or any
  /// other initial sizing).  Throws std::invalid_argument before any size
  /// changes unless t_target is finite, above the latch overhead, and
  /// 0 < yield_target < 1.
  GlobalOptimizerResult optimize(const GlobalOptimizerOptions& opt);

  /// Bitwise core::build_pipeline_ssta at the current sizes (default load).
  core::PipelineModel current_model() const;

 private:
  /// Per-stage SSTA characterizations at the current sizes — the cached
  /// "all other stages" half of a candidate-grid evaluation.  Candidate
  /// grids characterize the changed stage's size lanes in one grid call
  /// and substitute each lane into a copy of this vector, which reproduces
  /// the full per-candidate pipeline rebuild bitwise at 1/N of the SSTA cost.
  std::vector<sta::StageCharacterization> characterize_stages(
      double output_load) const;
  /// Pipeline model assembled from explicit stage characterizations.
  core::PipelineModel model_from(
      const std::vector<sta::StageCharacterization>& cs) const;

  std::vector<netlist::Netlist*> stages_;
  const device::AlphaPowerModel* model_;
  process::VariationSpec spec_;
  device::LatchModel latch_;
};

}  // namespace statpipe::opt
