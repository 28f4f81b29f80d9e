// Stage characterization: turns a stage netlist into the (mu_i, sigma_i)
// Gaussian the paper's analytical pipeline model consumes — the role SPICE
// Monte-Carlo plays in section 2.4.
#pragma once

#include <cstddef>
#include <vector>

#include "device/delay_model.h"
#include "netlist/netlist.h"
#include "process/variation.h"
#include "sta/ssta.h"
#include "sta/sta.h"
#include "stats/gaussian.h"
#include "stats/rng.h"

namespace statpipe::sta {

/// Combinational-delay statistics of one stage netlist: what the pipeline
/// model (eqs. 4-6) and the optimizers read.  From SSTA it is the
/// canonical form's projection (mu, sigma, |b_inter|) plus the cell area.
struct StageCharacterization {
  stats::Gaussian delay;        ///< total T_comb distribution [ps]
  double sigma_inter = 0.0;     ///< shared (inter-die) sigma component
  double area = 0.0;            ///< total cell area [min-inv areas]
};

struct CharacterizeOptions {
  std::size_t mc_samples = 2000;
  double output_load = 2.0;
};

/// Monte-Carlo characterization (the SPICE stand-in): samples dies, runs
/// sample STA, returns mean/sigma.  sigma_inter is estimated by regressing
/// delay on the inter-die draw.
StageCharacterization characterize_mc(const netlist::Netlist& nl,
                                      const device::AlphaPowerModel& model,
                                      const process::VariationSpec& spec,
                                      stats::Rng& rng,
                                      const CharacterizeOptions& opt = {});

/// Analytical characterization via canonical-form SSTA at nl's sizes —
/// orders of magnitude faster than characterize_mc.  The one-lane
/// characterize_grid call (sta/ssta_batch.h), so every SSTA
/// characterization comes from one producer.
StageCharacterization characterize_ssta(const netlist::Netlist& nl,
                                        const device::AlphaPowerModel& model,
                                        const process::VariationSpec& spec,
                                        const SstaOptions& opt = {});

}  // namespace statpipe::sta
