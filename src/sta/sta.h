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

/// Nominal (variation-free) STA.
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

/// Caller-owned arrival-time arena for tight sample-STA loops (one per
/// Monte-Carlo shard): steady-state sample STA then allocates nothing.
struct StaWorkspace {
  std::vector<double> arrival;
};

/// Reentrant sample STA: returns only the critical delay, propagating
/// through the caller's workspace.  Const-safe for concurrent use on the
/// same netlist provided its topological order has been materialized first
/// (call nl.topological_order() — or any STA entry point — once before
/// fanning out; the lazy cache is the one mutable member).
double critical_delay_sample(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::DieSample& die,
                             const std::vector<std::size_t>& site_of_gate,
                             const StaOptions& opt, StaWorkspace& ws);

/// Caller-owned SoA arena for the block sample STA (one per Monte-Carlo
/// shard and stage): gate-major arrival lanes plus per-gate lane scratch,
/// all reused so steady-state block STA allocates nothing.
///
/// The workspace also caches the lane-invariant stage structure — the
/// bind-once/stream-many half of the block kernel: flattened topo order,
/// per-gate site, capacitive load, nominal delay, sqrt(size) and CSR fanin
/// spans.  Every cached value is exactly what the scalar path recomputes
/// per die, so reuse cannot change results.  The cache keys on the
/// ADDRESSES of the netlist, model and site map plus opt.output_load: a
/// caller that reuses one workspace across stages must keep those objects
/// alive and structurally unmodified between calls (the Monte-Carlo engine
/// owns one workspace per stage for exactly this reason).
struct StaBlockWorkspace {
  std::vector<double> arrival;  ///< [gates * width], gate-major lane rows
  std::vector<double> dvth;     ///< [width] per-gate Vth shifts
  std::vector<double> dl;       ///< [width] per-gate dL/L shifts
  std::vector<double> vf;       ///< [width] per-gate variation factors

  // Bound stage structure (managed by critical_delay_sample_block).
  const netlist::Netlist* bound_nl = nullptr;
  const device::AlphaPowerModel* bound_model = nullptr;
  const std::vector<std::size_t>* bound_sites = nullptr;
  double bound_output_load = 0.0;
  std::vector<netlist::GateId> gate_ids;  ///< topo order, pseudo skipped
  std::vector<std::size_t> site;          ///< per bound gate
  std::vector<double> nominal;            ///< nominal delay per bound gate
  std::vector<double> sqrt_size;          ///< sqrt(gate size) per bound gate
  std::vector<std::size_t> fanin_begin;   ///< CSR offsets, size gate_ids+1
  std::vector<netlist::GateId> fanins;    ///< CSR fanin ids
};

/// Block sample STA: evaluates the alpha-power delay model and the topo max
/// for all `block.width` dies of one SoA DieBlock in a single walk, writing
/// the per-die critical delays to critical[0 .. width).  The walk runs as
/// one kernel of the active SIMD backend (stats/simd.h; width validated
/// against the backend's max_width()).  Per die the operation order is
/// unchanged from the scalar path — lane-invariant work (gate load,
/// nominal delay, sqrt(size)) is hoisted out of the lane loop but produces
/// the exact values the scalar path computes per call — so each die's
/// delay is bitwise-identical to critical_delay_sample on that die under
/// every backend.  Same reentrancy contract as critical_delay_sample.
void critical_delay_sample_block(const netlist::Netlist& nl,
                                 const device::AlphaPowerModel& model,
                                 const process::DieBlock& block,
                                 const std::vector<std::size_t>& site_of_gate,
                                 const StaOptions& opt, StaBlockWorkspace& ws,
                                 double* critical);

}  // namespace statpipe::sta
