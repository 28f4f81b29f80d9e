#include "core/characterized_pipeline.h"

#include <stdexcept>

#include "sim/engine.h"

namespace statpipe::core {

LatchOverhead latch_overhead_from(const device::LatchModel& latch,
                                  const process::VariationSpec& spec) {
  LatchOverhead o;
  o.mean = latch.timing().nominal_overhead();
  const auto& tech = latch.timing();
  // Same decomposition as LatchModel::overhead_distribution.
  const auto dist = latch.overhead_distribution(spec);
  o.sigma_random = o.mean * tech.random_sigma_rel;
  const double v_inter = dist.variance() - o.sigma_random * o.sigma_random;
  o.sigma_inter = v_inter > 0.0 ? std::sqrt(v_inter) : 0.0;
  return o;
}

PipelineModel assemble_pipeline(
    const std::vector<const netlist::Netlist*>& stages,
    const std::vector<sta::StageCharacterization>& cs,
    const device::LatchModel& latch, const process::VariationSpec& spec) {
  if (stages.empty())
    throw std::invalid_argument("assemble_pipeline: no stages");
  if (stages.size() != cs.size())
    throw std::invalid_argument(
        "assemble_pipeline: characterization count mismatch");
  std::vector<StageModel> models;
  models.reserve(stages.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i] == nullptr)
      throw std::invalid_argument("assemble_pipeline: null stage netlist");
    models.emplace_back(stages[i]->name(), cs[i].delay, cs[i].sigma_inter,
                        cs[i].area);
  }
  return PipelineModel(std::move(models), latch_overhead_from(latch, spec));
}

namespace {

template <typename CharFn>
PipelineModel build(const std::vector<const netlist::Netlist*>& stages,
                    const device::LatchModel& latch,
                    const process::VariationSpec& spec, CharFn&& characterize) {
  if (stages.empty())
    throw std::invalid_argument("build_pipeline: no stages");
  // Validate and warm the lazy topological caches serially; the fan-out
  // below then only reads shared netlists.
  for (const netlist::Netlist* nl : stages) {
    if (nl == nullptr)
      throw std::invalid_argument("build_pipeline: null stage netlist");
    (void)nl->topological_order();
  }
  std::vector<sta::StageCharacterization> cs(stages.size());
  sim::parallel_for(stages.size(), [&](std::size_t i) {
    cs[i] = characterize(*stages[i], i);
  });
  return assemble_pipeline(stages, cs, latch, spec);
}

}  // namespace

PipelineModel build_pipeline_ssta(
    const std::vector<const netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, const sta::SstaOptions& opt) {
  return build(stages, latch, spec,
               [&](const netlist::Netlist& nl, std::size_t) {
                 return sta::characterize_ssta(nl, model, spec, opt);
               });
}

PipelineModel build_pipeline_mc(
    const std::vector<const netlist::Netlist*>& stages,
    const device::AlphaPowerModel& model, const process::VariationSpec& spec,
    const device::LatchModel& latch, stats::Rng& rng,
    const sta::CharacterizeOptions& opt) {
  // Counter-split the caller's Rng so each stage characterizes on its own
  // stream regardless of execution order across pool workers.
  const stats::Rng root = rng.fork();
  return build(stages, latch, spec,
               [&](const netlist::Netlist& nl, std::size_t i) {
                 stats::Rng stage_rng = root.fork(i);
                 return sta::characterize_mc(nl, model, spec, stage_rng, opt);
               });
}

}  // namespace statpipe::core
