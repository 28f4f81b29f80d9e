#include "dist/task.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "dist/workload.h"
#include "process/variation.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"
#include "sta/ssta_batch.h"

namespace statpipe::dist {

namespace {

/// Grid-task workload, shared by the session's range runner: the rebuilt
/// stage netlist, the delay model (descriptor technology, like Workload)
/// and the size grid itself, owned here so the runner does not duplicate
/// the K x G doubles in its closure.
struct GridWorkload {
  netlist::Netlist nl;
  device::AlphaPowerModel model;
  std::vector<std::vector<double>> size_grid;
};

}  // namespace

std::size_t task_unit_count(const RunDescriptor& desc) {
  switch (desc.task_kind) {
    case TaskKind::kMonteCarlo:
      if (desc.n_samples == 0)
        throw std::invalid_argument("dist: descriptor with zero samples");
      // The engine's own planner: throws on zero samples_per_shard.
      return sim::shard_count(desc.n_samples, desc.samples_per_shard);
    case TaskKind::kSstaGrid:
      if (desc.size_grid.empty())
        throw std::invalid_argument(
            "dist: ssta-grid descriptor with an empty size grid");
      return desc.size_grid.size();
  }
  throw std::invalid_argument("dist: descriptor with unknown task kind");
}

std::size_t task_min_range_units(const RunDescriptor& desc) {
  return desc.task_kind == TaskKind::kSstaGrid ? sta::kMaxGridBlockLanes : 1;
}

std::size_t task_unit_wire_bytes(const RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid)
    return 48;  // 32-byte StageCharacterization + index and slack
  return static_cast<std::size_t>(desc.samples_per_shard) * 8;
}

UnitRangeRunner make_unit_runner(const RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) {
    // shared_ptr: the runner outlives this call.
    auto wl = std::make_shared<GridWorkload>(
        build_grid_stage(desc),
        device::AlphaPowerModel{descriptor_technology(desc)}, desc.size_grid);
    sta::SstaOptions opt;
    opt.output_load = desc.output_load;
    const process::VariationSpec spec = descriptor_spec(desc);
    return [wl, spec, opt](std::size_t begin, std::size_t end,
                           const UnitSink& emit) {
      sim::check_shard_range(wl->size_grid.size(), begin, end);
      // Characterize only the assigned lanes: no lane depends on the
      // others or on its block, so the sub-grid's lanes are bitwise those
      // of the full local call under any partitioning.
      const std::vector<std::vector<double>> sub(
          wl->size_grid.begin() + static_cast<std::ptrdiff_t>(begin),
          wl->size_grid.begin() + static_cast<std::ptrdiff_t>(end));
      const std::vector<sta::StageCharacterization> lanes =
          sta::characterize_grid(wl->nl, wl->model, sub, spec, opt);
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        ByteWriter w;
        write_stage_characterization(w, lanes[i]);
        emit(begin + i, w.take());
      }
    };
  }
  std::shared_ptr<Workload> wl = Workload::make(desc);
  return [wl, desc](std::size_t begin, std::size_t end, const UnitSink& emit) {
    // Execute the range in chunks of a few shards each so completed units
    // stream out while later ones still compute, keeping both worker and
    // coordinator memory bounded by the chunk, not the range.  Chunking is
    // pure scheduling: shard streams key on (root_seed, shard index) alone
    // and emission stays ascending, so the bytes cannot depend on it.
    const std::size_t chunk = std::max<std::size_t>(
        2 * sim::ThreadPool::shared().thread_count(), 8);
    for (std::size_t lo = begin; lo < end; lo += chunk) {
      const std::size_t hi = std::min(end, lo + chunk);
      const std::vector<mc::McResult> parts = wl->engine().run_shard_range(
          desc.n_samples, desc.root_seed, lo, hi, wl->exec(desc));
      for (std::size_t i = 0; i < parts.size(); ++i) {
        ByteWriter w;
        write_mc_result(w, parts[i]);
        emit(lo + i, w.take());
      }
    }
  };
}

TaskResult run_local_task(const RunDescriptor& desc) {
  TaskResult out;
  out.kind = desc.task_kind;
  if (desc.task_kind == TaskKind::kSstaGrid) {
    const netlist::Netlist nl = build_grid_stage(desc);
    const device::AlphaPowerModel model{descriptor_technology(desc)};
    sta::SstaOptions opt;
    opt.output_load = desc.output_load;
    // The exact local path the optimizer layers take with an empty hook —
    // one implementation, so reference and production cannot drift.
    out.lanes = sta::characterize_grid(nl, model, desc.size_grid,
                                       descriptor_spec(desc), opt);
    return out;
  }
  out.mc = run_local(desc);
  return out;
}

TaskResult decode_unit(TaskKind kind, ByteReader& r) {
  TaskResult out;
  out.kind = kind;
  if (kind == TaskKind::kSstaGrid)
    out.lanes.push_back(read_stage_characterization(r));
  else
    out.mc = read_mc_result(r);
  return out;
}

void fold_unit(TaskResult& acc, std::size_t index, TaskResult&& unit) {
  if (index == 0) {
    acc = std::move(unit);
    if (acc.kind == TaskKind::kMonteCarlo) acc.mc.label = "gate-level MC";
  } else if (acc.kind == TaskKind::kSstaGrid) {
    acc.lanes.insert(acc.lanes.end(), unit.lanes.begin(), unit.lanes.end());
  } else {
    acc.mc.merge(std::move(unit.mc));
  }
}

std::vector<std::uint8_t> encode_result(const TaskResult& r) {
  return r.kind == TaskKind::kSstaGrid ? serialize_characterizations(r.lanes)
                                       : serialize_mc_result(r.mc);
}

TaskResult decode_result(TaskKind kind, std::span<const std::uint8_t> blob) {
  TaskResult out;
  out.kind = kind;
  if (kind == TaskKind::kSstaGrid)
    out.lanes = deserialize_characterizations(blob);
  else
    out.mc = deserialize_mc_result(blob);
  return out;
}

bool bitwise_equal(const TaskResult& a, const TaskResult& b) {
  return a.kind == b.kind && encode_result(a) == encode_result(b);
}

}  // namespace statpipe::dist
