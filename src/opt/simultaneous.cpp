#include "opt/simultaneous.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/characterized_pipeline.h"
#include "obs/telemetry.h"
#include "opt/lr_stage.h"

namespace statpipe::opt {

using netlist::Netlist;

SimultaneousResult size_pipeline_simultaneous(
    std::vector<netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, const SimultaneousOptions& opt) {
  if (stages.empty())
    throw std::invalid_argument("size_pipeline_simultaneous: no stages");
  for (auto* s : stages)
    if (s == nullptr)
      throw std::invalid_argument("size_pipeline_simultaneous: null stage");
  const SizerOptions& so = opt.sizer;
  if (!(std::isfinite(opt.t_target) &&
        opt.t_target > latch.timing().nominal_overhead()))
    throw std::invalid_argument(
        "size_pipeline_simultaneous: t_target not finite or within the "
        "latch overhead");
  if (!(opt.yield_target > 0.0 && opt.yield_target < 1.0))
    throw std::invalid_argument(
        "size_pipeline_simultaneous: yield outside (0,1)");
  if (!(std::isfinite(opt.stage_softmax_theta) &&
        opt.stage_softmax_theta > 0.0))
    throw std::invalid_argument(
        "size_pipeline_simultaneous: stage_softmax_theta not finite or <= 0");
  validate_sizer_options(so);

  const std::size_t m = stages.size();
  const double z = stats::normal_icdf(opt.yield_target);
  std::vector<LrStage<1>> lr;
  lr.reserve(m);
  for (auto* s : stages) lr.emplace_back(*s, model, spec, so, z);

  auto pipeline_model = [&] {
    std::vector<const Netlist*> views(stages.begin(), stages.end());
    return core::build_pipeline_ssta(views, model, spec, latch,
                                     {.output_load = so.output_load});
  };

  double lambda_scale = 1.0;
  SimultaneousResult result;
  double best_metric = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> best_sizes;
  for (auto* s : stages) best_sizes.push_back(s->sizes());

  for (std::size_t iter = 0; iter < so.max_iterations; ++iter) {
    // --- pipeline-level statistical timing (the coupling the paper's
    //     divide-and-conquer flow evaluates incrementally).
    const auto pipe = pipeline_model();
    const double y = pipe.yield(opt.t_target);
    const double t_req = pipe.target_delay_for_yield(opt.yield_target);
    ++result.iterations;
    static obs::Counter c_iters("opt.simultaneous.iterations");
    c_iters.add();

    // Track the best design seen: feasibility first, then area.
    {
      double area = 0.0;
      for (auto* s : stages) area += s->total_area();
      const bool feas = y >= opt.yield_target - 1e-9;
      const double metric = feas ? 1e12 - area : y * 1e6;
      if (metric > best_metric) {
        best_metric = metric;
        result.feasible = feas;
        result.area = area;
        result.pipeline_yield = y;
        for (std::size_t s = 0; s < m; ++s) best_sizes[s] = stages[s]->sizes();
      }
    }

    // --- subgradient on the joint multiplier: violation measured as how
    //     far the yield-quantile delay overshoots the target.
    const double violation = (t_req - opt.t_target) / opt.t_target;
    lambda_scale *= std::exp(std::clamp(2.0 * violation, -0.7, 0.7));
    lambda_scale = std::clamp(lambda_scale, 1e-4, 1e6);

    // --- stage criticalities: softmax over per-stage statistical delays.
    std::vector<double> stage_stat(m);
    double smax = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      const auto d = pipe.stage_delay(s);
      stage_stat[s] = d.mean + z * d.sigma;
      smax = std::max(smax, stage_stat[s]);
    }
    const double theta_s = opt.stage_softmax_theta * opt.t_target;
    std::vector<double> crit(m);
    double csum = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      crit[s] = std::exp((stage_stat[s] - smax) / theta_s);
      csum += crit[s];
    }
    for (auto& c : crit) c /= csum;

    // --- joint gate update: every gate of every stage, weighted by its
    //     stage criticality.
    static constexpr char kRunning = 1;
    for (std::size_t s = 0; s < m; ++s) {
      const double lambda = lambda_scale * static_cast<double>(m) * crit[s];
      lr[s].evaluate();
      lr[s].update(&lambda, &kRunning);
      stages[s]->set_sizes(lr[s].sizes());
    }
  }

  // Restore the best joint design.
  for (std::size_t s = 0; s < m; ++s) stages[s]->set_sizes(best_sizes[s]);
  const auto pipe = pipeline_model();
  result.pipeline_yield = pipe.yield(opt.t_target);
  result.area = pipe.total_area();
  result.feasible = result.pipeline_yield >= opt.yield_target - 1e-9;
  return result;
}

}  // namespace statpipe::opt
