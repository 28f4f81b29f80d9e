// Generic distributed task layer: maps a RunDescriptor's TaskKind to unit
// planning, unit-range execution and the local reference run.
//
// A task is a sequence of n_units independent work units (Monte-Carlo
// shards, SSTA grid lanes).  Workers execute contiguous unit ranges and
// STREAM one serialized payload per unit, ascending, as units complete
// (wire v3); the coordinator stages and then folds committed units in
// ascending index, which reproduces the single-process result bit for
// bit for every kind (docs/DETERMINISM.md).  This header is the one place
// that knows how each TaskKind plans, runs and folds; the coordinator,
// worker loop and transport stay kind-agnostic.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dist/serialize.h"
#include "mc/pipeline_mc.h"
#include "sta/characterize.h"

namespace statpipe::dist {

/// What a completed task run holds.  Exactly one member is populated,
/// selected by `kind`: the folded Monte-Carlo result, or the K sweep-lane
/// characterizations in ascending lane order.
struct TaskResult {
  TaskKind kind = TaskKind::kMonteCarlo;
  mc::McResult mc;                                ///< kMonteCarlo
  std::vector<sta::StageCharacterization> lanes;  ///< kSstaGrid
};

/// Number of work units the descriptor's task plans: MC shard count
/// (sim::shard_count) or grid lane count.  Also validates the kind's plan
/// inputs — zero samples (MC), an empty grid, a multi-stage grid workload
/// or a lane whose size vector does not cover the netlist all throw
/// std::invalid_argument with the offending field named.
std::size_t task_unit_count(const RunDescriptor& desc);

/// Serialized per-unit payload size estimate for frame-budget checks: a
/// shard's McResult scales with samples_per_shard; a grid lane is a fixed
/// 48-byte StageCharacterization.
std::size_t task_unit_wire_bytes(const RunDescriptor& desc);

/// Receives one serialized unit payload as it completes.  The runner calls
/// the sink once per unit, STRICTLY ASCENDING in unit index over the
/// assigned range — the contract that lets the worker stream each unit as
/// its own kResult frame and the coordinator fold a contiguous prefix with
/// bounded memory (docs/DETERMINISM.md).
using UnitSink = std::function<void(std::size_t unit_index,
                                    const std::vector<std::uint8_t>& payload)>;

/// Executes units [unit_begin, unit_end) of the descriptor's task, emitting
/// each unit's serialized payload through `emit` in ascending unit order.
/// The factory front half (workload construction, hash verification)
/// happens in make_unit_runner; the returned runner only executes ranges.
/// Runners may batch execution internally (e.g. a few units per parallel
/// chunk) — batching is pure scheduling and never changes the bytes,
/// because units are independent and emitted in index order regardless.
using UnitRangeRunner = std::function<void(
    std::size_t unit_begin, std::size_t unit_end, const UnitSink& emit)>;

/// Builds the descriptor's workload (rebuilding netlists from the registry
/// and verifying the structural hash — mismatch throws, the worker reports
/// kError and contributes nothing) and returns the kind's range runner.
UnitRangeRunner make_unit_runner(const RunDescriptor& desc);

/// Runs the descriptor's task to completion in this process — the
/// single-process reference every distributed run is bitwise-compared
/// against: GateLevelMonteCarlo::run for kMonteCarlo,
/// sta::characterize_grid over the whole grid for kSstaGrid.
TaskResult run_local_task(const RunDescriptor& desc);

/// Bitwise distributed-vs-local acceptance predicate across kinds:
/// byte equality of the serialized forms of the populated member.
bool bitwise_equal(const TaskResult& a, const TaskResult& b);

}  // namespace statpipe::dist
