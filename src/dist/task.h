// Generic distributed task layer: maps a RunDescriptor's TaskKind to unit
// planning, unit-range execution and the local reference run.
//
// A task is a sequence of n_units independent work units (Monte-Carlo
// shards, SSTA grid lanes).  Workers execute contiguous unit ranges and
// STREAM one serialized payload per unit, ascending, as units complete
// (wire v3); the service decodes each payload into a one-unit TaskResult,
// stages it, and folds committed units into one accumulator in ascending
// index, which reproduces the single-process result bit for bit for every
// kind (docs/DETERMINISM.md).  This header is the one place that knows how
// each TaskKind plans, runs, decodes, folds and encodes; the service,
// worker loop and transport know no task kind.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dist/serialize.h"
#include "mc/pipeline_mc.h"
#include "sta/characterize.h"

namespace statpipe::dist {

/// What a task run, or one unit of it, holds.  Exactly one member is
/// populated, selected by `kind`: the (folded) Monte-Carlo result, or the
/// sweep-lane characterizations in ascending lane order.
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

/// Fewest units a range of the descriptor's task holds: one shard for
/// Monte-Carlo, one block of lanes (sta::kMaxGridBlockLanes) for a grid,
/// so a worker characterizes its lanes in whole blocks.  A unit is still
/// one shard or one lane on the wire; Service cuts ranges of
/// clamp(units_per_range or its auto size, this floor, n_units).
std::size_t task_min_range_units(const RunDescriptor& desc);

/// Serialized per-unit payload size estimate for frame-budget checks: a
/// shard's McResult scales with samples_per_shard; a grid lane is a fixed
/// 32-byte StageCharacterization.
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

/// Decodes one unit payload, as make_unit_runner emits it, into a one-unit
/// TaskResult of `kind`: one shard's McResult or one lane.  Reads from `r`
/// and leaves the trailing-byte check to the caller; a malformed payload
/// throws like the serialize.h readers.
TaskResult decode_unit(TaskKind kind, ByteReader& r);

/// Folds unit `index` into `acc`.  Units arrive in ascending index from 0,
/// and unit 0 becomes the accumulator.  Monte-Carlo shards then fold with
/// McResult::merge, the left fold GateLevelMonteCarlo::run applies, and the
/// accumulator carries that run's "gate-level MC" label; grid lanes are
/// appended.  Folding units 0..n-1 of a task gives run_local_task's bits.
void fold_unit(TaskResult& acc, std::size_t index, TaskResult&& unit);

/// The result blob of the populated member: serialize_mc_result or
/// serialize_characterizations — the service's cache entry and the
/// kRequestDone payload.  decode_result is its inverse for `kind`;
/// decode ∘ encode is byte identity.
std::vector<std::uint8_t> encode_result(const TaskResult& r);
TaskResult decode_result(TaskKind kind, std::span<const std::uint8_t> blob);

/// Bitwise distributed-vs-local acceptance predicate across kinds: same
/// kind and byte equality of the encode_result blobs.
bool bitwise_equal(const TaskResult& a, const TaskResult& b);

}  // namespace statpipe::dist
