// Workload registry for distributed runs: turns a RunDescriptor into the
// exact netlists and engines the coordinator described.
//
// The descriptor names the workload as a comma-separated list of ISCAS85
// circuit names ("c3540,c2670,c1908,c432"; SSTA grid tasks name exactly
// one); every process synthesizes the stages with the same deterministic
// generator and verifies the combined Netlist::structural_hash against the
// descriptor before running a single unit — a worker with a diverging
// build of the generators refuses work instead of silently contributing
// wrong results.  The Workload class below is the Monte-Carlo engine
// assembly; the grid-task assembly lives in dist/task.h on top of
// build_grid_stage.
//
// Layer contract (src/dist, see docs/ARCHITECTURE.md): the distributed
// execution layer sits on top of mc/sta/sim/stats and may depend on all of
// them; nothing below src/dist may know it exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/delay_model.h"
#include "device/latch.h"
#include "dist/serialize.h"
#include "mc/pipeline_mc.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sim/engine.h"

namespace statpipe::dist {

/// A fully assembled gate-level MC workload with stable addresses (the
/// engine holds pointers into stages/model for its lifetime), built from a
/// RunDescriptor.  Non-copyable, non-movable for exactly that reason.
class Workload {
 public:
  /// Builds stages from desc.workload, applies the descriptor's variation
  /// / latch / STA options and verifies desc.netlist_hash (0 = skip the
  /// check, used by the side that computes the hash in the first place).
  /// Throws std::invalid_argument on unknown circuit names or hash
  /// mismatch.
  static std::unique_ptr<Workload> make(const RunDescriptor& desc);

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const mc::GateLevelMonteCarlo& engine() const noexcept { return *engine_; }
  /// Combined structural hash of the stages (what RunDescriptor carries).
  std::uint64_t stage_hash() const noexcept { return hash_; }

  /// Execution options matching the descriptor; threads stays 0 (the local
  /// pool's choice — it never affects results).
  sim::ExecutionOptions exec(const RunDescriptor& desc) const;

 private:
  Workload() = default;

  std::vector<netlist::Netlist> stages_;
  std::unique_ptr<device::AlphaPowerModel> model_;
  std::unique_ptr<device::LatchModel> latch_;
  std::unique_ptr<mc::GateLevelMonteCarlo> engine_;
  std::uint64_t hash_ = 0;
};

/// Combined structural hash over an ordered stage list (FNV-fold of the
/// per-netlist hashes; order-sensitive, like the pipeline).
std::uint64_t hash_stages(const std::vector<netlist::Netlist>& stages);

/// Splits the descriptor's comma-separated workload field into circuit
/// names (spaces ignored).  Throws std::invalid_argument when empty.
std::vector<std::string> split_workload_names(const std::string& workload);

/// The process::VariationSpec the descriptor's spec fields encode, and
/// the write-side twin a submitter uses — keep them the single mapping so
/// a new spec field cannot be copied in one direction and forgotten in
/// the other.
process::VariationSpec descriptor_spec(const RunDescriptor& d);
void set_descriptor_spec(RunDescriptor& d, const process::VariationSpec& s);

/// The process::Technology the descriptor's tech_* fields encode — every
/// workload assembly (MC and grid, local and worker-side) builds its delay
/// model from this, so non-default technologies replay exactly.
process::Technology descriptor_technology(const RunDescriptor& d);

/// The inverse: copies a model's technology into the descriptor — what a
/// submitter does before finalizing.
void set_descriptor_technology(RunDescriptor& d,
                               const process::Technology& tech);

/// Rebuilds and validates the single stage netlist of a kSstaGrid
/// descriptor: exactly one circuit name, a non-empty size grid that
/// passes sta::check_size_grid (full-length lanes of finite positive
/// sizes, a finite non-negative output_load), a spec that passes
/// process::check_variation_spec, and (when desc.netlist_hash
/// != 0) a structural-hash match.  Throws std::invalid_argument naming the
/// offending field; both finalize_descriptor and the worker-side grid
/// assembly (dist/task.h) go through it, so coordinator and worker agree
/// on what a valid grid is.
netlist::Netlist build_grid_stage(const RunDescriptor& desc);

/// Fills desc.netlist_hash and desc.root_seed from desc.workload and
/// desc.seed — what a coordinator does before serving the descriptor.
/// Dispatches on desc.task_kind and validates the kind's plan inputs.
void finalize_descriptor(RunDescriptor& desc);

/// Runs the descriptor's Monte-Carlo workload to completion in this
/// process (the single-process reference): exactly
/// GateLevelMonteCarlo::run with Rng(desc.seed).  The distributed
/// acceptance check is bitwise_equal against this.  Kind-generic callers
/// use dist/task.h's run_local_task instead.
mc::McResult run_local(const RunDescriptor& desc);

}  // namespace statpipe::dist
