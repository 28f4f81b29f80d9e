#include "opt/sizer.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"
#include "opt/lr_stage.h"
#include "sim/engine.h"
#include "sim/thread_pool.h"

namespace statpipe::opt {

using netlist::GateId;
using netlist::Netlist;

void validate_sizer_options(const SizerOptions& opt) {
  if (!(opt.min_size > 0.0 && opt.max_size >= opt.min_size))
    throw std::invalid_argument("SizerOptions: bad size bounds");
  if (!(opt.damping > 0.0 && opt.damping <= 1.0))
    throw std::invalid_argument("SizerOptions: damping outside (0,1]");
  if (!(opt.softmax_theta_ps > 0.0))
    throw std::invalid_argument("SizerOptions: softmax_theta_ps <= 0");
  if (!(std::isfinite(opt.output_load) && opt.output_load >= 0.0))
    throw std::invalid_argument("SizerOptions: output_load < 0 or not finite");
}

template <std::size_t kLanes>
LrStage<kLanes>::LrStage(const Netlist& nl,
                         const device::AlphaPowerModel& model,
                         const process::VariationSpec& spec,
                         const SizerOptions& opt, double z, std::size_t lanes)
    : sta::SizeLanes<kLanes>(nl, model, spec, opt.output_load, z, lanes),
      nl_(nl),
      opt_(opt),
      tau_(model.technology().tau_ps),
      weight_(nl.size() * lanes, 0.0),
      amax_(lanes),
      sum_(lanes),
      pred_(lanes) {}

template <std::size_t kLanes>
void LrStage<kLanes>::softmax_terms(const std::vector<GateId>& ids) {
  const std::size_t L = this->lanes();
  const std::vector<double>& arrival = this->arrivals();
  const double theta = opt_.softmax_theta_ps;
  double* amax = amax_.data();
  double* sum = sum_.data();
  std::fill_n(amax, L, 0.0);
  for (GateId i : ids) {
    const double* a = &arrival[i * L];
    for (std::size_t k = 0; k < L; ++k) amax[k] = std::max(amax[k], a[k]);
  }
  exps_.resize(ids.size() * L);
  std::fill_n(sum, L, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double* a = &arrival[ids[i] * L];
    double* e = &exps_[i * L];
    for (std::size_t k = 0; k < L; ++k) {
      e[k] = std::exp((a[k] - amax[k]) / theta);
      sum[k] += e[k];
    }
  }
}

/// Flow-conserving criticality multipliers: seed every primary output with
/// weight softmax(arrival), then push each gate's weight back onto its
/// fanins proportional to exp(arrival/theta) — the LR projection step.
template <std::size_t kLanes>
void LrStage<kLanes>::criticality_weights() {
  const std::size_t L = this->lanes();
  const double* sum = sum_.data();
  std::fill(weight_.begin(), weight_.end(), 0.0);
  const auto& outs = nl_.outputs();
  softmax_terms(outs);
  for (std::size_t i = 0; i < outs.size(); ++i) {
    double* w = &weight_[outs[i] * L];
    const double* e = &exps_[i * L];
    for (std::size_t k = 0; k < L; ++k) w[k] += e[k] / sum[k];
  }

  // Reverse-topological back-propagation; a lane skips a gate whose weight
  // is not positive there.
  const auto& topo = nl_.topological_order();
  const auto& gates = nl_.gates();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto& fanins = gates[*it].fanins;
    const double* w = &weight_[*it * L];
    bool any = false;
    for (std::size_t k = 0; k < L; ++k) any = any || !(w[k] <= 0.0);
    if (!any || fanins.empty()) continue;
    softmax_terms(fanins);
    for (std::size_t i = 0; i < fanins.size(); ++i) {
      double* wf = &weight_[fanins[i] * L];
      const double* e = &exps_[i * L];
      for (std::size_t k = 0; k < L; ++k)
        if (!(w[k] <= 0.0)) wf[k] += w[k] * e[k] / sum[k];
    }
  }
}

template <std::size_t kLanes>
void LrStage<kLanes>::update(const double* lambda, const char* running) {
  criticality_weights();
  const std::size_t L = this->lanes();
  const auto& gates = nl_.gates();
  std::vector<double>& size = this->sizes();
  double* pred_cost = pred_.data();
  // Gauss-Seidel in topological order: fanin sizes are already updated.
  for (GateId id : nl_.topological_order()) {
    const netlist::Gate& g = gates[id];
    if (g.is_pseudo()) continue;
    const auto& t = device::traits(g.kind);

    // Pressure from this gate's own delay: lam_g * tau * load / x^2.
    // Pressure from loading predecessors: sum over fanins p of
    //   lam_p * tau * g_le / x_p  (per unit of our size).
    std::fill_n(pred_cost, L, 0.0);
    for (GateId f : g.fanins) {
      if (gates[f].is_pseudo()) continue;
      const double* wf = &weight_[f * L];
      const double* xf = &size[f * L];
      for (std::size_t k = 0; k < L; ++k)
        pred_cost[k] += lambda[k] * wf[k] * tau_ * t.logical_effort / xf[k];
    }
    const double* w = &weight_[id * L];
    const double* load = &this->loads()[id * L];
    double* x = &size[id * L];
    for (std::size_t k = 0; k < L; ++k) {
      const double denom = t.area + pred_cost[k];
      const double x_star = std::sqrt(std::max(
          lambda[k] * w[k] * tau_ * std::max(load[k], 1e-6) / denom, 1e-12));
      const double x_new = std::clamp(x_star, opt_.min_size, opt_.max_size);
      const double next = x[k] * (1.0 - opt_.damping) + x_new * opt_.damping;
      x[k] = running[k] ? next : x[k];
    }
  }
}

template class LrStage<0>;
template class LrStage<1>;

double stat_delay(const Netlist& nl, const device::AlphaPowerModel& model,
                  const process::VariationSpec& spec, double yield_target,
                  double output_load) {
  const auto c = sta::characterize_ssta(nl, model, spec,
                                       {.output_load = output_load});
  return c.delay.mean + stats::normal_icdf(yield_target) * c.delay.sigma;
}

namespace {

/// size_stage's input checks, over every target before any lane runs.
void check_stage_inputs(const SizerOptions& opt, const double* t_target,
                        std::size_t lanes) {
  if (!(opt.yield_target > 0.0 && opt.yield_target < 1.0))
    throw std::invalid_argument("size_stage: yield_target outside (0,1)");
  if (!(opt.tolerance_ps >= 0.0))
    throw std::invalid_argument("size_stage: tolerance_ps < 0 or NaN");
  for (std::size_t k = 0; k < lanes; ++k)
    if (!std::isfinite(t_target[k]))
      throw std::invalid_argument("size_stage: t_target not finite");
  validate_sizer_options(opt);
}

/// size_stage's LR loop, run for every lane of one walk: lane k sizes
/// against t_target[k] and lands in out[k].  A lane that converges stops
/// updating while the others go on.
template <std::size_t kLanes>
void size_lanes(const Netlist& nl, const device::AlphaPowerModel& model,
                const process::VariationSpec& spec, const SizerOptions& opt,
                const double* t_target, std::size_t lanes, SizedLane* out) {
  static obs::Counter c_iters("opt.sizer.iterations");
  const double z = stats::normal_icdf(opt.yield_target);
  LrStage<kLanes> stage(nl, model, spec, opt, z, lanes);
  const std::size_t L = stage.lanes();

  // Per lane: the Lagrange multiplier on the delay constraint (it scales
  // the criticality weights against area in the size update and moves by
  // subgradient steps on the constraint violation), the best point seen,
  // and whether the lane still iterates.
  std::vector<double> lambda(L, 1.0);
  std::vector<double> best_stat(L, std::numeric_limits<double>::infinity());
  std::vector<sta::CanonicalDelay> best(L);
  std::vector<double> best_sizes = stage.sizes();
  std::vector<double> area(L);
  std::vector<char> running(L, 1), take(L, 0);
  std::size_t n_running = L;
  sta::CanonicalLaneArrays timing(1, L);
  const sta::CanonicalLanes d = timing.at(0);

  for (std::size_t iter = 0; iter < opt.max_iterations && n_running > 0;
       ++iter) {
    // --- timing at current sizes: one evaluation per gate and lane,
    //     folded into each lane's canonical SSTA.
    stage.evaluate();
    stage.fold_ssta(d);
    stage.area(area.data());
    c_iters.add(n_running);
    for (std::size_t k = 0; k < L; ++k) {
      take[k] = 0;
      if (!running[k]) continue;
      SizerResult& r = out[k].result;
      const sta::CanonicalDelay dk = d.load(k);
      const double ds = dk.mu + z * dk.sigma();
      ++r.iterations;
      // Track the closest-to-target feasible point, or the fastest seen;
      // the first evaluation is always recorded.
      const double window = t_target[k] + opt.tolerance_ps;
      const bool feas = ds <= window;
      const bool best_feas = best_stat[k] <= window;
      bool better = false;
      if (feas && best_feas)
        better = area[k] < r.area;  // both meet target: prefer smaller area
      else if (feas != best_feas)
        better = feas;              // feasibility first
      else
        better = ds < best_stat[k];  // both infeasible: prefer faster
      if (better || r.iterations == 1) {
        best_stat[k] = ds;
        r.area = area[k];
        best[k] = dk;
        take[k] = 1;
      }
      if (std::abs(ds - t_target[k]) <= opt.tolerance_ps) {
        running[k] = 0;
        --n_running;
        continue;
      }
      // --- subgradient step on the constraint multiplier.
      const double violation =
          (ds - t_target[k]) / std::max(t_target[k], 1.0);
      lambda[k] *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
      lambda[k] = std::clamp(lambda[k], 1e-4, 1e6);
    }
    const std::vector<double>& x = stage.sizes();
    for (std::size_t i = 0; i < x.size(); i += L)
      for (std::size_t k = 0; k < L; ++k)
        if (take[k]) best_sizes[i + k] = x[i + k];

    // --- LR projection and closed-form coordinate update of every size.
    if (n_running > 0) stage.update(lambda.data(), running.data());
  }
  if (opt.max_iterations == 0) {  // no iteration: report the start point
    stage.evaluate();
    stage.fold_ssta(d);
    stage.area(area.data());
    for (std::size_t k = 0; k < L; ++k) {
      best[k] = d.load(k);
      out[k].result.area = area[k];
    }
  }

  // The best point's canonical delay is bitwise analyze_ssta at its sizes
  // (sta::fold_ssta_lanes' contract), so no closing analysis runs.
  for (std::size_t k = 0; k < L; ++k) {
    SizerResult& r = out[k].result;
    r.delay = best[k].as_gaussian();
    r.stat_delay = best[k].mu + z * best[k].sigma();
    r.feasible = r.stat_delay <= t_target[k] + opt.tolerance_ps;
    out[k].sizes.resize(nl.size());
    for (GateId id = 0; id < nl.size(); ++id)
      out[k].sizes[id] = best_sizes[id * L + k];
  }
}

}  // namespace

SizerResult size_stage(Netlist& nl, const device::AlphaPowerModel& model,
                       const process::VariationSpec& spec,
                       const SizerOptions& opt) {
  check_stage_inputs(opt, &opt.t_target, 1);
  static const obs::SpanId kSizeStage("opt.size_stage");
  obs::ScopedSpan span(kSizeStage);
  SizedLane lane;
  size_lanes<1>(nl, model, spec, opt, &opt.t_target, 1, &lane);
  nl.set_sizes(lane.sizes);
  return lane.result;
}

std::vector<SizedLane> size_stage_grid(const Netlist& nl,
                                       const device::AlphaPowerModel& model,
                                       const process::VariationSpec& spec,
                                       const SizerOptions& base,
                                       const std::vector<double>& t_targets) {
  const std::size_t n = t_targets.size();
  check_stage_inputs(base, t_targets.data(), n);
  std::vector<SizedLane> out(n);
  if (n == 0) return out;
  (void)nl.topological_order();  // cached before the blocks share it
  // Contiguous blocks as even as the lane count allows, one per pool
  // worker at most; a nested call runs them inline on its worker.
  const std::size_t blocks =
      std::min(n, sim::ThreadPool::shared().thread_count());
  sim::parallel_for(blocks, [&](std::size_t b) {
    const std::size_t begin = n * b / blocks;
    const std::size_t end = n * (b + 1) / blocks;
    static const obs::SpanId kBlock("opt.size_grid");
    obs::ScopedSpan span(kBlock, static_cast<std::int64_t>(end - begin));
    // A one-lane block runs size_stage's engine, whose lane loops compile
    // away; the bits are the same either way.
    if (end - begin == 1)
      size_lanes<1>(nl, model, spec, base, &t_targets[begin], 1, &out[begin]);
    else
      size_lanes<0>(nl, model, spec, base, &t_targets[begin], end - begin,
                    &out[begin]);
  });
  return out;
}

}  // namespace statpipe::opt
