#include "sta/ssta_batch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "device/gate_library.h"
#include "obs/telemetry.h"
#include "sim/thread_pool.h"

namespace statpipe::sta {

std::vector<SstaConfig> make_configs(
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec) {
  std::vector<SstaConfig> cfgs(size_grid.size());
  for (std::size_t k = 0; k < size_grid.size(); ++k) {
    cfgs[k].sizes = size_grid[k];
    cfgs[k].spec = spec;
  }
  return cfgs;
}

sim::ExecutionOptions batch_exec(std::size_t lanes) {
  sim::ExecutionOptions exec;
  const std::size_t workers =
      std::max<std::size_t>(sim::ThreadPool::shared().thread_count(), 1);
  // ~2 blocks per worker for load balance, but keep blocks narrow (<= 8
  // lanes) so the optimizer's small grids still occupy the pool.
  const std::size_t blocks = 2 * workers;
  exec.samples_per_shard =
      std::clamp<std::size_t>((lanes + blocks - 1) / blocks, 1, 8);
  return exec;
}

std::vector<StageCharacterization> characterize_grid(
    const netlist::Netlist& nl, const device::AlphaPowerModel& model,
    const std::vector<std::vector<double>>& size_grid,
    const process::VariationSpec& spec, const SstaOptions& opt,
    const GridCharacterizer& hook) {
  if (hook) return hook(nl, model, size_grid, spec, opt);
  const SstaBatch batch(nl, model, opt);
  return batch.characterize(make_configs(size_grid, spec));
}

SstaBatch::SstaBatch(const netlist::Netlist& nl,
                     const device::AlphaPowerModel& model,
                     const SstaOptions& opt)
    : model_(&model), opt_(opt), nl_(nl) {
  if (nl_.outputs().empty())
    throw std::logic_error("SstaBatch: netlist has no primary outputs");
  (void)nl_.topological_order();  // cached before lane blocks share it
}

void SstaBatch::run_block(const std::vector<SstaConfig>& configs,
                          std::size_t lane_begin, std::size_t lane_count,
                          CanonicalDelay* out,
                          StageCharacterization* chars) const {
  static const obs::SpanId kGridBlock("sta.grid_block");
  obs::ScopedSpan block_span(kGridBlock,
                             static_cast<std::int64_t>(lane_count));
  static obs::Counter c_lanes("sta.grid_lanes");
  c_lanes.add(lane_count);
  const std::size_t n = nl_.size();
  const std::size_t L = lane_count;
  const auto& gates = nl_.gates();
  auto size_of = [&](netlist::GateId id, std::size_t k) {
    const auto& sizes = configs[lane_begin + k].sizes;
    return sizes.empty() ? gates[id].size : sizes[id];
  };

  // Every gate's own canonical delay per lane, then one lane fold.  Nominal
  // (variation-free) arrivals ride along in the same walk when a full
  // characterization is requested; they reuse the per-lane load and
  // nominal-delay values, which the scalar path computes identically in its
  // separate sta::analyze pass.
  CanonicalLaneArrays arrival(n, L);
  std::vector<double> nom_arrival;
  if (chars != nullptr) nom_arrival.assign(n * L, 0.0);
  for (netlist::GateId id : nl_.topological_order()) {
    const auto& g = gates[id];
    if (g.is_pseudo()) continue;
    const CanonicalLanes dst = arrival.at(id);
    for (std::size_t k = 0; k < L; ++k) {
      // load_of with this lane's sizes: fanout input caps in list order,
      // plus the primary-output load.
      double load = 0.0;
      for (netlist::GateId s : g.fanouts)
        load += device::input_cap(gates[s].kind, size_of(s, k));
      if (nl_.is_output(id)) load += opt_.output_load;

      const double size = size_of(id, k);
      const auto sig =
          model_->delay_sigmas(g.kind, size, load, configs[lane_begin + k].spec);
      const double mu = model_->nominal_delay(g.kind, size, load);
      dst.store(k, {.mu = mu,
                    .b_inter = sig.inter,
                    .sigma_ind = sig.random,
                    .b_sys = sig.systematic});

      if (chars != nullptr) {
        double in_arr = 0.0;
        for (netlist::GateId f : g.fanins)
          in_arr = std::max(in_arr, nom_arrival[f * L + k]);
        nom_arrival[id * L + k] = in_arr + mu;
      }
    }
  }
  CanonicalLaneArrays res(1, L);
  fold_ssta_lanes(nl_, arrival, res.at(0));

  for (std::size_t k = 0; k < L; ++k) {
    const CanonicalDelay d = res.at(0).load(k);
    if (out != nullptr) out[lane_begin + k] = d;
    if (chars != nullptr) {
      StageCharacterization c;
      c.delay = d.as_gaussian();
      c.sigma_inter = std::abs(d.b_inter);
      // Same split as characterize_ssta: systematic is shared within the
      // stage but private across stages.
      c.sigma_private = std::sqrt(d.b_sys * d.b_sys + d.sigma_ind * d.sigma_ind);
      double area = 0.0;
      for (netlist::GateId id = 0; id < n; ++id)
        area += device::cell_area(gates[id].kind, size_of(id, k));
      c.area = area;
      double critical = 0.0;
      for (netlist::GateId o : nl_.outputs())
        if (nom_arrival[o * L + k] >= critical) critical = nom_arrival[o * L + k];
      c.nominal_delay = critical;
      chars[lane_begin + k] = c;
    }
  }
}

namespace {

void validate_configs(const std::vector<SstaConfig>& configs,
                      std::size_t n_gates) {
  for (const auto& c : configs)
    if (!c.sizes.empty() && c.sizes.size() != n_gates)
      throw std::invalid_argument("SstaBatch: config size-vector length "
                                  "does not match the bound netlist");
}

}  // namespace

std::vector<CanonicalDelay> SstaBatch::analyze(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  validate_configs(configs, nl_.size());
  std::vector<CanonicalDelay> out(configs.size());
  if (configs.empty()) return out;
  const auto shards = sim::plan_shards(
      configs.size(), std::max<std::size_t>(exec.samples_per_shard, 1));
  sim::parallel_for(
      shards.size(),
      [&](std::size_t i) {
        run_block(configs, shards[i].begin, shards[i].count, out.data(),
                  nullptr);
      },
      exec.threads);
  return out;
}

std::vector<StageCharacterization> SstaBatch::characterize(
    const std::vector<SstaConfig>& configs,
    const sim::ExecutionOptions& exec) const {
  validate_configs(configs, nl_.size());
  std::vector<StageCharacterization> out(configs.size());
  if (configs.empty()) return out;
  const auto shards = sim::plan_shards(
      configs.size(), std::max<std::size_t>(exec.samples_per_shard, 1));
  sim::parallel_for(
      shards.size(),
      [&](std::size_t i) {
        run_block(configs, shards[i].begin, shards[i].count, nullptr,
                  out.data());
      },
      exec.threads);
  return out;
}

}  // namespace statpipe::sta
