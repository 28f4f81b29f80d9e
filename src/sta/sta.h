// Deterministic static timing analysis over a gate-level netlist.
//
// Arrival times propagate in topological order; the critical (maximum)
// arrival over primary outputs is the combinational delay T_comb that the
// paper's stage-delay decomposition SD = Tc-q + T_comb + T_setup consumes.
//
// Layer contract (src/sta, see docs/ARCHITECTURE.md): owns timing analysis
// over one netlist — deterministic STA, canonical-form SSTA, the lane
// evaluator, grid and stage characterization.  May depend on stats/process/
// device/netlist, and on src/sim only to fan batched lanes out; must not
// know about Monte-Carlo engines, pipeline models or optimizers.
#pragma once

#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"

namespace statpipe::sta {

struct StaOptions {
  double output_load = 2.0;  ///< cap on primary outputs [inv-cap units]
};

struct StaResult {
  double critical_delay = 0.0;          ///< max arrival over outputs [ps]
  std::vector<double> arrival;          ///< per-gate arrival [ps]
  netlist::GateId critical_output = netlist::kInvalidGate;

  /// Gates on the critical path, input-side first.
  std::vector<netlist::GateId> critical_path(const netlist::Netlist& nl,
                                             const device::AlphaPowerModel& model,
                                             const StaOptions& opt = {}) const;
};

/// Nominal (variation-free) STA; also the scalar reference of the lane
/// evaluator's z = 0 arrivals (sta::SizeLanes).
StaResult analyze(const netlist::Netlist& nl,
                  const device::AlphaPowerModel& model,
                  const StaOptions& opt = {});

/// STA under a sampled die: per-gate delays scaled by the alpha-power
/// variation factor at each gate's site.  `site_of_gate[i]` maps gate id to
/// the DieSample site index (identity when the netlist was sampled alone).
StaResult analyze_sample(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate,
                         const StaOptions& opt = {});

/// Convenience: identity site map (site i == gate i).
StaResult analyze_sample(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const StaOptions& opt = {});

/// One stage bound for the block sample STA: its lane-invariant structure
/// flattened once — topological gate ids (pseudo gates skipped), each
/// gate's die site, nominal delay, sqrt(size) and CSR fanin rows, and the
/// primary-output rows — plus a copy of the delay model.  bind_stage
/// computes every value exactly as analyze_sample does per die, so walking
/// many blocks over one binding cannot change results.  A binding is a
/// snapshot of the netlist's sizes when it was built (a later set_sizes is
/// not seen; bind again), refers to nothing, and is read-only afterwards,
/// so concurrent walks may share it.
struct BoundStage {
  device::AlphaPowerModel model;            ///< the model bound under
  std::size_t rows = 0;                     ///< arrival rows (netlist size)
  std::vector<netlist::GateId> gate_ids{};  ///< topo order, pseudo skipped
  std::vector<std::size_t> site{};          ///< per bound gate
  std::vector<double> nominal{};            ///< nominal delay per bound gate
  std::vector<double> sqrt_size{};          ///< sqrt(size) per bound gate
  std::vector<std::size_t> fanin_begin{};   ///< CSR offsets, gate_ids + 1
  std::vector<netlist::GateId> fanins{};    ///< CSR fanin rows
  std::vector<netlist::GateId> outputs{};   ///< primary-output rows
};

/// Binds `nl` at its current sizes under `model`, the gate -> die-site map
/// and opt.output_load.  Throws std::invalid_argument when the site map's
/// size differs from the netlist's, std::logic_error when the netlist has
/// no primary outputs.
BoundStage bind_stage(const netlist::Netlist& nl,
                      const device::AlphaPowerModel& model,
                      const std::vector<std::size_t>& site_of_gate,
                      const StaOptions& opt);

/// Caller-owned lane scratch for the block sample STA: gate-major arrival
/// lanes plus the shift rows of a gate that faults.  It holds no stage
/// structure, so one workspace serves every stage in turn, and
/// steady-state block STA allocates nothing.
struct StaBlockWorkspace {
  std::vector<double> arrival;  ///< [rows * width], gate-major lane rows
  std::vector<double> dvth;     ///< [width] Vth shifts of a faulting gate
  std::vector<double> dl;       ///< [width] dL/L shifts of a faulting gate
};

/// Block sample STA: evaluates the alpha-power delay model and the topo max
/// for all `block.width` dies of one SoA DieBlock in a single walk of
/// `stage`, writing the per-die critical delays to critical[0 .. width).
/// The walk runs as one kernel of the active SIMD backend (stats/simd.h;
/// width validated against the backend's max_width()).  Per die the
/// operation order is analyze_sample's, so die j's delay is
/// bitwise-identical to analyze_sample(...).critical_delay on the same die
/// under every backend, at every width including 1.  A die outside the
/// variation-factor domain throws the scalar variation_factor's
/// std::domain_error.
void critical_delay_sample_block(const BoundStage& stage,
                                 const process::DieBlock& block,
                                 StaBlockWorkspace& ws, double* critical);

}  // namespace statpipe::sta
