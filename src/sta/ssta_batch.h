// Whole-grid SSTA characterization: one netlist topology, K candidate size
// vectors, one StageCharacterization per lane.
//
// The yield/area optimizer's inner loops (area-delay sweeps, the global
// optimizer's candidate grids) score the *same* netlist structure under
// many per-gate size assignments.  characterize_grid runs the lanes
// through the lane evaluator (sta::SizeLanes, sta/size_lanes.h) in narrow
// blocks over the shared pool: one topological walk per block computes
// every lane's loads, canonical delays and nominal arrivals, then one lane
// fold (fold_ssta_lanes) gives each lane's critical-output delay.
//
// Determinism contract: per lane, the walk executes exactly the
// floating-point sequence of the scalar path, so
//
//   characterize_grid(nl, model, grid, spec, opt)[k]
//     == characterize_ssta(nl_with(grid[k]), model, spec, {.output_load})
//
// bitwise, for every k.  Lanes carry no random state, so results are also
// independent of how the grid is cut into blocks, of the thread count, and
// of which sub-range of the grid a call covers (tests/test_sta.cpp
// enforces all three).
#pragma once

#include <functional>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/characterize.h"
#include "sta/ssta.h"

namespace statpipe::sta {

/// Pluggable whole-grid characterization backend: given one netlist
/// structure, the delay model, a K-lane size grid (every lane a FULL
/// per-gate size vector) and a shared variation spec, return one
/// StageCharacterization per lane.  The optimizer layers
/// (`opt::SweepOptions::grid`, `opt::GlobalOptimizerOptions::grid`) route
/// their candidate grids through this seam; an empty function means the
/// local path.  `src/dist` provides a cluster-backed implementation
/// (dist::grid_characterizer) — this typedef lives down here in sta so opt
/// and dist can compose without ever including each other.
///
/// Contract for alternative backends: lane k of the returned vector must
/// be bitwise-identical to what `characterize_grid(nl, model, grid, spec,
/// opt)[k]` computes locally — which is why the model is part of the
/// signature: a backend must replay model.technology() exactly, not assume
/// defaults (tests/test_dist.cpp enforces it for the cluster backend; see
/// docs/DETERMINISM.md).
using GridCharacterizer =
    std::function<std::vector<StageCharacterization>(
        const netlist::Netlist& nl, const device::AlphaPowerModel& model,
        const std::vector<std::vector<double>>& size_grid,
        const process::VariationSpec& spec, const SstaOptions& opt)>;

/// Characterizes a whole size grid through `hook` when set, else locally:
/// the call every optimizer candidate-grid site makes.  The grid is checked
/// first (check_size_grid: full-length lanes of finite positive sizes, a
/// finite non-negative output load); std::invalid_argument names the first
/// bad lane.  The local path throws std::logic_error if `nl` has no primary
/// outputs, caches nl's topological order before its blocks share it, and
/// runs lane blocks of at most 8 lanes, about two per pool worker.
std::vector<StageCharacterization> characterize_grid(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec, const SstaOptions& opt,
    const GridCharacterizer& hook = {});

}  // namespace statpipe::sta
