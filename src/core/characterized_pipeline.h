// Bridge from gate-level stage netlists to the analytical PipelineModel:
// characterize every stage (SSTA or Monte-Carlo), convert the latch model,
// and assemble the paper's per-stage (mu_i, sigma_i) representation.
#pragma once

#include <vector>

#include "core/pipeline_model.h"
#include "device/latch.h"
#include "netlist/netlist.h"
#include "sta/characterize.h"

namespace statpipe::core {

/// Converts a device-level latch model into the pipeline-level overhead
/// decomposition used by PipelineModel.
LatchOverhead latch_overhead_from(const device::LatchModel& latch,
                                  const process::VariationSpec& spec);

/// Assembles a PipelineModel from per-stage characterizations already in
/// hand (stage i's name is taken from stages[i]).  This is the substitution
/// path for batched candidate grids: characterize the unchanged stages once,
/// batch-characterize the changed stage's size lanes, and assemble one model
/// per lane — bitwise-equal to rebuilding the full pipeline per candidate.
/// Throws std::invalid_argument on length mismatch or null stages.
PipelineModel assemble_pipeline(
    const std::vector<const netlist::Netlist*>& stages,
    const std::vector<sta::StageCharacterization>& cs,
    const device::LatchModel& latch, const process::VariationSpec& spec);

/// Builds a PipelineModel from stage netlists using analytical SSTA
/// characterization (fast path; used inside the optimizer loop).
PipelineModel build_pipeline_ssta(
    const std::vector<const netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, const sta::SstaOptions& opt = {});

/// Same, with Monte-Carlo characterization (the SPICE-accurate path of
/// section 2.4's verification flow).
PipelineModel build_pipeline_mc(
    const std::vector<const netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, stats::Rng& rng,
    const sta::CharacterizeOptions& opt = {});

}  // namespace statpipe::core
