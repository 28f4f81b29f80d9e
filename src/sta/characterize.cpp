#include "sta/characterize.h"

#include <cmath>
#include <stdexcept>

#include "sta/ssta_batch.h"
#include "stats/descriptive.h"

namespace statpipe::sta {

StageCharacterization characterize_mc(const netlist::Netlist& nl,
                                      const device::AlphaPowerModel& model,
                                      const process::VariationSpec& spec,
                                      stats::Rng& rng,
                                      const CharacterizeOptions& opt) {
  if (opt.mc_samples < 2)
    throw std::invalid_argument("characterize_mc: need >= 2 samples");

  std::vector<double> positions;
  positions.reserve(nl.size());
  for (const auto& g : nl.gates()) positions.push_back(g.position);
  process::VariationSampler sampler(model.technology(), spec, positions);

  StaOptions sta_opt;
  sta_opt.output_load = opt.output_load;

  std::vector<double> delays, inters;
  delays.reserve(opt.mc_samples);
  inters.reserve(opt.mc_samples);
  for (std::size_t i = 0; i < opt.mc_samples; ++i) {
    const auto die = sampler.sample(rng);
    delays.push_back(analyze_sample(nl, model, die, sta_opt).critical_delay);
    inters.push_back(die.dvth_inter);
  }

  StageCharacterization c;
  c.delay = {stats::mean(delays), stats::stddev(delays)};
  c.area = nl.total_area();
  // The part of sigma explained by the shared inter-die draw.
  if (spec.sigma_vth_inter > 0.0)
    c.sigma_inter = std::abs(stats::pearson(delays, inters)) * c.delay.sigma;
  return c;
}

StageCharacterization characterize_ssta(const netlist::Netlist& nl,
                                        const device::AlphaPowerModel& model,
                                        const process::VariationSpec& spec,
                                        const SstaOptions& opt) {
  return characterize_grid(nl, model, {nl.sizes()}, spec, opt)[0];
}

}  // namespace statpipe::sta
