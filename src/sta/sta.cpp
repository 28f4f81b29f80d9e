#include "sta/sta.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/simd.h"

namespace statpipe::sta {

namespace {

// Arrival propagation in topological order; the critical output is the
// last maximal output arrival.
template <typename DelayFn>
StaResult propagate(const netlist::Netlist& nl, DelayFn&& gate_delay) {
  StaResult r;
  r.arrival.assign(nl.size(), 0.0);
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    double in_arr = 0.0;
    for (netlist::GateId f : g.fanins)
      in_arr = std::max(in_arr, r.arrival[f]);
    r.arrival[id] = in_arr + gate_delay(id);
  }
  if (nl.outputs().empty())
    throw std::logic_error("sta: netlist has no primary outputs");
  for (netlist::GateId o : nl.outputs()) {
    if (r.arrival[o] >= r.critical_delay) {
      r.critical_delay = r.arrival[o];
      r.critical_output = o;
    }
  }
  return r;
}

double sample_gate_delay(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate,
                         const StaOptions& opt, netlist::GateId id) {
  const auto& g = nl.gate(id);
  const std::size_t site = site_of_gate[id];
  const double dvth = die.dvth_at(site, g.size);
  const double dl = die.dl_rel_at(site);
  return model.delay(g.kind, g.size, nl.load_of(id, opt.output_load), dvth, dl);
}

}  // namespace

StaResult analyze(const netlist::Netlist& nl,
                  const device::AlphaPowerModel& model,
                  const StaOptions& opt) {
  return propagate(nl, [&](netlist::GateId id) {
    const auto& g = nl.gate(id);
    return model.nominal_delay(g.kind, g.size, nl.load_of(id, opt.output_load));
  });
}

StaResult analyze_sample(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const std::vector<std::size_t>& site_of_gate,
                         const StaOptions& opt) {
  if (site_of_gate.size() != nl.size())
    throw std::invalid_argument("analyze_sample: site map size mismatch");
  return propagate(nl, [&](netlist::GateId id) {
    return sample_gate_delay(nl, model, die, site_of_gate, opt, id);
  });
}

BoundStage bind_stage(const netlist::Netlist& nl,
                      const device::AlphaPowerModel& model,
                      const std::vector<std::size_t>& site_of_gate,
                      const StaOptions& opt) {
  if (site_of_gate.size() != nl.size())
    throw std::invalid_argument("bind_stage: site map size mismatch");
  if (nl.outputs().empty())
    throw std::logic_error("sta: netlist has no primary outputs");
  // Each value is computed as sample_gate_delay computes it per die (same
  // expressions, same order).
  BoundStage b{.model = model, .rows = nl.size()};
  b.fanin_begin.push_back(0);
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    b.gate_ids.push_back(id);
    b.site.push_back(site_of_gate[id]);
    b.nominal.push_back(
        model.nominal_delay(g.kind, g.size, nl.load_of(id, opt.output_load)));
    b.sqrt_size.push_back(std::sqrt(g.size));
    b.fanins.insert(b.fanins.end(), g.fanins.begin(), g.fanins.end());
    b.fanin_begin.push_back(b.fanins.size());
  }
  b.outputs = nl.outputs();
  return b;
}

void critical_delay_sample_block(const BoundStage& stage,
                                 const process::DieBlock& block,
                                 StaBlockWorkspace& ws, double* critical) {
  // Single source of truth for the kernel width rule (throws on 0 or
  // beyond kMaxWidth — validated, never clamped).
  const std::size_t W = stats::lanes::validated_width(block.width);
  ws.arrival.assign(stage.rows * W, 0.0);
  ws.dvth.resize(W);
  ws.dl.resize(W);

  // The whole walk — fanin max fold, SoA parameter gather, variation-factor
  // pow row, output fold — runs as one dispatched kernel of the active
  // SIMD backend (stats/simd.h; body in stats/lanes_kernels.inl).  Per die
  // the operation order is analyze_sample's, per gate the domain checks
  // are the scalar variation_factor's in the same lane order.
  stats::simd::StaWalkArgs args;
  args.width = W;
  args.n_gates = stage.gate_ids.size();
  args.gate_ids = stage.gate_ids.data();
  args.site = stage.site.data();
  args.nominal = stage.nominal.data();
  args.sqrt_size = stage.sqrt_size.data();
  args.fanin_begin = stage.fanin_begin.data();
  args.fanins = stage.fanins.data();
  args.dvth_inter = block.dvth_inter.data();
  args.dl_inter = block.dl_inter_rel.data();
  args.dvth_sys = block.dvth_systematic.empty()
                      ? nullptr
                      : block.dvth_systematic.data();
  args.dvth_rnd =
      block.dvth_random.empty() ? nullptr : block.dvth_random.data();
  args.dl_sys = block.dl_systematic_rel.empty()
                    ? nullptr
                    : block.dl_systematic_rel.data();
  const auto vp = stage.model.variation_kernel_params();
  args.drive0 = vp.drive0;
  args.alpha = vp.alpha;
  args.min_ratio = vp.min_ratio;
  args.max_ratio = vp.max_ratio;
  args.arrival = ws.arrival.data();
  args.dvth = ws.dvth.data();
  args.dl = ws.dl.data();
  args.outputs = stage.outputs.data();
  args.n_outputs = stage.outputs.size();
  args.critical = critical;

  const std::size_t fault = stats::simd::kernels().sta_block_walk(args);
  if (fault != stats::simd::kNoFault) {
    // The kernel stopped on the first gate whose lane row violates the
    // variation-factor domain, leaving that row's shifts in ws.dvth/ws.dl.
    // Regenerate the exact scalar exception (same message, same lane
    // precedence) by replaying the scalar check on those shifts.
    for (std::size_t j = 0; j < W; ++j)
      (void)stage.model.variation_factor(ws.dvth[j], ws.dl[j]);
    throw std::logic_error(
        "critical_delay_sample_block: walk kernel reported a domain fault "
        "the scalar variation_factor does not reproduce");
  }
}

StaResult analyze_sample(const netlist::Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::DieSample& die,
                         const StaOptions& opt) {
  std::vector<std::size_t> identity(nl.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  return analyze_sample(nl, model, die, identity, opt);
}

std::vector<netlist::GateId> StaResult::critical_path(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const StaOptions& opt) const {
  std::vector<netlist::GateId> path;
  if (critical_output == netlist::kInvalidGate) return path;
  netlist::GateId cur = critical_output;
  for (;;) {
    path.push_back(cur);
    const auto& g = nl.gate(cur);
    if (g.fanins.empty()) break;
    // Predecessor with the largest arrival determined this gate's arrival.
    netlist::GateId best = g.fanins.front();
    for (netlist::GateId f : g.fanins)
      if (arrival[f] > arrival[best]) best = f;
    cur = best;
  }
  (void)model;
  (void)opt;
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace statpipe::sta
