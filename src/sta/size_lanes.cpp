#include "sta/size_lanes.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "device/gate_library.h"

namespace statpipe::sta {

using netlist::GateId;

void check_size_grid(const netlist::Netlist& nl,
                     const std::vector<std::vector<double>>& size_grid,
                     const SstaOptions& opt) {
  if (!(std::isfinite(opt.output_load) && opt.output_load >= 0.0))
    throw std::invalid_argument("size grid: output_load " +
                                std::to_string(opt.output_load) +
                                " is not finite and >= 0");
  for (std::size_t k = 0; k < size_grid.size(); ++k) {
    const std::vector<double>& lane = size_grid[k];
    if (lane.size() != nl.size())
      throw std::invalid_argument(
          "size grid lane " + std::to_string(k) + " carries " +
          std::to_string(lane.size()) + " sizes for a netlist of " +
          std::to_string(nl.size()) +
          " gates (every lane must be a full size vector)");
    for (GateId id = 0; id < lane.size(); ++id)
      if (!(std::isfinite(lane[id]) && lane[id] > 0.0))
        throw std::invalid_argument(
            "size grid lane " + std::to_string(k) + ", gate " +
            std::to_string(id) + ": size " + std::to_string(lane[id]) +
            " is not finite and > 0");
  }
}

template <std::size_t kLanes>
SizeLanes<kLanes>::SizeLanes(const netlist::Netlist& nl,
                             const device::AlphaPowerModel& model,
                             const process::VariationSpec& spec,
                             double output_load, double z, std::size_t lanes)
    : nl_(nl),
      model_(model),
      spec_(spec),
      output_load_(output_load),
      z_(z),
      sqrt_depth_(std::sqrt(
          static_cast<double>(std::max<std::size_t>(nl.depth(), 1)))),
      lanes_(lanes),
      size_(nl.size() * lanes),
      load_(nl.size() * lanes, 0.0),
      arrival_(nl.size() * lanes, 0.0),
      delay_(nl.size(), lanes),
      in_(lanes) {
  if (kLanes > 0 && lanes != kLanes)
    throw std::logic_error("SizeLanes: lane count differs from kLanes");
  const auto& gates = nl.gates();
  for (GateId id = 0; id < nl.size(); ++id)
    std::fill_n(&size_[id * lanes], lanes, gates[id].size);
}

template <std::size_t kLanes>
void SizeLanes<kLanes>::evaluate() {
  const std::size_t L = lanes();
  const auto& gates = nl_.gates();
  double* in = in_.data();
  // Pseudo-gates keep arrival 0 and delay {} from construction: only real
  // gates are written, here and in fold_ssta.
  for (GateId id : nl_.topological_order()) {
    const netlist::Gate& g = gates[id];
    if (g.is_pseudo()) continue;
    std::fill_n(in, L, 0.0);
    for (GateId f : g.fanins) {
      const double* a = &arrival_[f * L];
      for (std::size_t k = 0; k < L; ++k) in[k] = std::max(in[k], a[k]);
    }
    // load_of in every lane: fanout input caps in list order, plus the
    // primary-output load.
    double* load = &load_[id * L];
    std::fill_n(load, L, 0.0);
    for (GateId s : g.fanouts)
      device::add_input_cap_lanes(gates[s].kind, &size_[s * L], L, load);
    if (nl_.is_output(id))
      for (std::size_t k = 0; k < L; ++k) load[k] += output_load_;

    const double* x = &size_[id * L];
    const CanonicalLanes d = delay_.at(id);
    model_.nominal_delay_lanes(g.kind, x, load, L, d.mu);
    model_.delay_sigmas_lanes(g.kind, x, load, L, spec_,
                              {d.b_inter, d.b_sys, d.sigma_ind});
    double* arr = &arrival_[id * L];
    for (std::size_t k = 0; k < L; ++k) {
      const device::AlphaPowerModel::DelaySigmas sig{d.b_inter[k], d.b_sys[k],
                                                     d.sigma_ind[k]};
      arr[k] = in[k] + d.mu[k] + z_ * sig.total() / sqrt_depth_;
    }
  }
}

template <std::size_t kLanes>
void SizeLanes<kLanes>::area(double* out) const {
  const std::size_t L = lanes();
  const auto& gates = nl_.gates();
  std::fill_n(out, L, 0.0);
  for (GateId id = 0; id < gates.size(); ++id)
    device::add_cell_area_lanes(gates[id].kind, &size_[id * L], L, out);
}

template class SizeLanes<0>;
template class SizeLanes<1>;

}  // namespace statpipe::sta
