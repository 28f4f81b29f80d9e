#include "opt/sizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/telemetry.h"
#include "opt/lr_stage.h"

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
}

LrStage::LrStage(Netlist& nl, const device::AlphaPowerModel& model,
                 const process::VariationSpec& spec, const SizerOptions& opt,
                 double z)
    : nl_(nl),
      model_(model),
      spec_(spec),
      opt_(opt),
      z_(z),
      sqrt_depth_(std::sqrt(
          static_cast<double>(std::max<std::size_t>(nl.depth(), 1)))),
      load_(nl.size(), 0.0),
      arrival_(nl.size(), 0.0),
      weight_(nl.size(), 0.0),
      delay_(nl.size()) {}

void LrStage::evaluate() {
  // Pseudo-gates keep arrival 0 and delay {} from construction: only real
  // gates are written, here and in fold_ssta.
  for (GateId id : nl_.topological_order()) {
    const auto& g = nl_.gate(id);
    if (g.is_pseudo()) continue;
    double in_arr = 0.0;
    for (GateId f : g.fanins) in_arr = std::max(in_arr, arrival_[f]);
    const double load = nl_.load_of(id, opt_.output_load);
    const auto sig = model_.delay_sigmas(g.kind, g.size, load, spec_);
    const double mu = model_.nominal_delay(g.kind, g.size, load);
    load_[id] = load;
    arrival_[id] = in_arr + mu + z_ * sig.total() / sqrt_depth_;
    delay_[id] = {.mu = mu,
                  .b_inter = sig.inter,
                  .sigma_ind = sig.random,
                  .b_sys = sig.systematic};
  }
}

sta::CanonicalDelay LrStage::fold_ssta() {
  return sta::fold_ssta(nl_, delay_);
}

/// Flow-conserving criticality multipliers: seed every primary output with
/// weight softmax(arrival), then push each gate's weight back onto its
/// fanins proportional to exp(arrival/theta) — the LR projection step.
void LrStage::criticality_weights() {
  const double theta = opt_.softmax_theta_ps;
  // exps_[k] = exp((arrival - max) / theta) of ids[k], once; returns the sum.
  auto softmax_terms = [&](const std::vector<GateId>& ids) {
    double amax = 0.0;
    for (GateId i : ids) amax = std::max(amax, arrival_[i]);
    exps_.resize(ids.size());
    double sum = 0.0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      exps_[k] = std::exp((arrival_[ids[k]] - amax) / theta);
      sum += exps_[k];
    }
    return sum;
  };

  std::fill(weight_.begin(), weight_.end(), 0.0);
  const auto& outs = nl_.outputs();
  const double norm = softmax_terms(outs);
  for (std::size_t k = 0; k < outs.size(); ++k)
    weight_[outs[k]] += exps_[k] / norm;

  // Reverse-topological back-propagation.
  const auto& topo = nl_.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto& g = nl_.gate(*it);
    const double w = weight_[*it];
    if (w <= 0.0 || g.fanins.empty()) continue;
    const double fsum = softmax_terms(g.fanins);
    for (std::size_t k = 0; k < g.fanins.size(); ++k)
      weight_[g.fanins[k]] += w * exps_[k] / fsum;
  }
}

void LrStage::update(double lambda) {
  criticality_weights();
  const double tau = model_.technology().tau_ps;
  // Gauss-Seidel in topological order: fanin sizes are already updated.
  for (GateId id : nl_.topological_order()) {
    auto& g = nl_.gate(id);
    if (g.is_pseudo()) continue;
    const auto& t = device::traits(g.kind);

    // Pressure from this gate's own delay: lam_g * tau * load / x^2.
    // Pressure from loading predecessors: sum over fanins p of
    //   lam_p * tau * g_le / x_p  (per unit of our size).
    double pred_cost = 0.0;
    for (GateId f : g.fanins) {
      const auto& pg = nl_.gate(f);
      if (pg.is_pseudo()) continue;
      pred_cost += lambda * weight_[f] * tau * t.logical_effort / pg.size;
    }
    const double denom = t.area + pred_cost;
    const double x_star = std::sqrt(std::max(
        lambda * weight_[id] * tau * std::max(load_[id], 1e-6) / denom,
        1e-12));
    const double x_new = std::clamp(x_star, opt_.min_size, opt_.max_size);
    g.size = g.size * (1.0 - opt_.damping) + x_new * opt_.damping;
  }
}

double stat_delay(const Netlist& nl, const device::AlphaPowerModel& model,
                  const process::VariationSpec& spec, double yield_target,
                  double output_load) {
  sta::SstaOptions so;
  so.output_load = output_load;
  const auto d = sta::analyze_ssta(nl, model, spec, so);
  const double z = stats::normal_icdf(yield_target);
  return d.mu + z * d.sigma();
}

SizerResult size_stage(Netlist& nl, const device::AlphaPowerModel& model,
                       const process::VariationSpec& spec,
                       const SizerOptions& opt) {
  if (!(opt.yield_target > 0.0 && opt.yield_target < 1.0))
    throw std::invalid_argument("size_stage: yield_target outside (0,1)");
  validate_sizer_options(opt);

  const double z = stats::normal_icdf(opt.yield_target);
  sta::SstaOptions ssta_opt;
  ssta_opt.output_load = opt.output_load;

  // Lagrange multiplier on the delay constraint: scales the criticality
  // weights against area in the size update; grown/shrunk by subgradient
  // steps on the constraint violation.
  double lambda_scale = 1.0;
  double best_stat = std::numeric_limits<double>::infinity();
  std::vector<double> best_sizes = nl.sizes();
  SizerResult result;

  auto record_if_best = [&](double ds) {
    // Track the closest-to-target feasible point, or the fastest seen.
    const bool feas = ds <= opt.t_target + opt.tolerance_ps;
    const bool best_feas = best_stat <= opt.t_target + opt.tolerance_ps;
    const double area = nl.total_area();
    bool take = false;
    if (feas && best_feas)
      take = area < result.area;   // both meet target: prefer smaller area
    else if (feas != best_feas)
      take = feas;                 // feasibility first
    else
      take = ds < best_stat;       // both infeasible: prefer faster
    if (take || result.iterations == 1) {  // first evaluation always recorded
      best_stat = ds;
      result.area = area;
      best_sizes = nl.sizes();
    }
  };

  LrStage stage(nl, model, spec, opt, z);
  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    // --- timing at current sizes: one evaluation per gate, folded into
    //     the stage's canonical SSTA.
    stage.evaluate();
    const auto d = stage.fold_ssta();
    const double ds = d.mu + z * d.sigma();
    ++result.iterations;
    static obs::Counter c_iters("opt.sizer.iterations");
    c_iters.add();
    record_if_best(ds);
    if (std::abs(ds - opt.t_target) <= opt.tolerance_ps) break;

    // --- subgradient step on the constraint multiplier.
    const double violation = (ds - opt.t_target) / std::max(opt.t_target, 1.0);
    lambda_scale *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
    lambda_scale = std::clamp(lambda_scale, 1e-4, 1e6);

    // --- LR projection and closed-form coordinate update of every size.
    stage.update(lambda_scale);
  }

  // Restore the best sizes seen.
  nl.set_sizes(best_sizes);
  const auto final_d = sta::analyze_ssta(nl, model, spec, ssta_opt);
  result.delay = final_d.as_gaussian();
  result.stat_delay = final_d.mu + z * final_d.sigma();
  result.area = nl.total_area();
  result.feasible = result.stat_delay <= opt.t_target + opt.tolerance_ps;
  return result;
}

}  // namespace statpipe::opt
