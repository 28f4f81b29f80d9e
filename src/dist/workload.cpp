#include "dist/workload.h"

#include <stdexcept>
#include <utility>

#include "netlist/generators.h"
#include "sta/size_lanes.h"
#include "stats/rng.h"

namespace statpipe::dist {

std::vector<std::string> split_workload_names(const std::string& workload) {
  std::vector<std::string> names;
  std::string cur;
  for (char c : workload) {
    if (c == ',') {
      if (!cur.empty()) names.push_back(std::move(cur));
      cur.clear();
    } else if (c != ' ') {
      cur += c;
    }
  }
  if (!cur.empty()) names.push_back(std::move(cur));
  if (names.empty())
    throw std::invalid_argument("dist: empty workload name");
  return names;
}

process::Technology descriptor_technology(const RunDescriptor& d) {
  process::Technology tech;
  tech.vdd = d.tech_vdd;
  tech.vth0 = d.tech_vth0;
  tech.leff = d.tech_leff;
  tech.wmin = d.tech_wmin;
  tech.alpha = d.tech_alpha;
  tech.tau_ps = d.tech_tau_ps;
  tech.avt = d.tech_avt;
  return tech;
}

void set_descriptor_technology(RunDescriptor& d,
                               const process::Technology& tech) {
  d.tech_vdd = tech.vdd;
  d.tech_vth0 = tech.vth0;
  d.tech_leff = tech.leff;
  d.tech_wmin = tech.wmin;
  d.tech_alpha = tech.alpha;
  d.tech_tau_ps = tech.tau_ps;
  d.tech_avt = tech.avt;
}

process::VariationSpec descriptor_spec(const RunDescriptor& d) {
  process::VariationSpec spec;
  spec.sigma_vth_inter = d.sigma_vth_inter;
  spec.sigma_vth_systematic = d.sigma_vth_systematic;
  spec.correlation_length = d.correlation_length;
  spec.enable_rdf = d.enable_rdf != 0;
  spec.sigma_l_inter_rel = d.sigma_l_inter_rel;
  spec.sigma_l_systematic_rel = d.sigma_l_systematic_rel;
  return spec;
}

void set_descriptor_spec(RunDescriptor& d, const process::VariationSpec& s) {
  d.sigma_vth_inter = s.sigma_vth_inter;
  d.sigma_vth_systematic = s.sigma_vth_systematic;
  d.correlation_length = s.correlation_length;
  d.enable_rdf = s.enable_rdf ? 1 : 0;
  d.sigma_l_inter_rel = s.sigma_l_inter_rel;
  d.sigma_l_systematic_rel = s.sigma_l_systematic_rel;
}

std::uint64_t hash_stages(const std::vector<netlist::Netlist>& stages) {
  // FNV-1a fold of the per-stage structural hashes: order-sensitive, so
  // swapping two pipeline stages changes the workload identity.
  std::uint64_t h = netlist::kFnvOffsetBasis;
  for (const auto& s : stages)
    h = netlist::fnv1a_fold(h, s.structural_hash());
  return h;
}

std::unique_ptr<Workload> Workload::make(const RunDescriptor& desc) {
  std::unique_ptr<Workload> w(new Workload());
  for (const std::string& name : split_workload_names(desc.workload))
    w->stages_.push_back(netlist::iscas_like(name));  // throws on unknown
  w->hash_ = hash_stages(w->stages_);
  if (desc.netlist_hash != 0 && desc.netlist_hash != w->hash_)
    throw std::invalid_argument(
        "dist: workload '" + desc.workload + "' hash mismatch (descriptor " +
        std::to_string(desc.netlist_hash) + ", rebuilt " +
        std::to_string(w->hash_) +
        ") — coordinator and worker builds disagree on the netlist");
  w->model_ =
      std::make_unique<device::AlphaPowerModel>(descriptor_technology(desc));
  device::LatchTiming timing;
  timing.tcq_ps = desc.latch_tcq_ps;
  timing.tsetup_ps = desc.latch_tsetup_ps;
  timing.random_sigma_rel = desc.latch_random_sigma_rel;
  w->latch_ = std::make_unique<device::LatchModel>(timing, *w->model_);
  std::vector<const netlist::Netlist*> views;
  views.reserve(w->stages_.size());
  for (const auto& s : w->stages_) views.push_back(&s);
  sta::StaOptions sta_opt;
  sta_opt.output_load = desc.output_load;
  w->engine_ = std::make_unique<mc::GateLevelMonteCarlo>(
      std::move(views), *w->model_, descriptor_spec(desc), *w->latch_,
      sta_opt);
  return w;
}

netlist::Netlist build_grid_stage(const RunDescriptor& desc) {
  const auto names = split_workload_names(desc.workload);
  if (names.size() != 1)
    throw std::invalid_argument(
        "dist: ssta-grid workload must name exactly one circuit, got " +
        std::to_string(names.size()) + " ('" + desc.workload + "')");
  netlist::Netlist nl = netlist::iscas_like(names.front());  // throws unknown
  if (desc.size_grid.empty())
    throw std::invalid_argument(
        "dist: ssta-grid descriptor with an empty size grid");
  sta::check_size_grid(nl, desc.size_grid,
                       sta::SstaOptions{.output_load = desc.output_load});
  if (desc.netlist_hash != 0) {
    const std::uint64_t h =
        netlist::fnv1a_fold(netlist::kFnvOffsetBasis, nl.structural_hash());
    if (h != desc.netlist_hash)
      throw std::invalid_argument(
          "dist: workload '" + desc.workload + "' hash mismatch (descriptor " +
          std::to_string(desc.netlist_hash) + ", rebuilt " +
          std::to_string(h) +
          ") — coordinator and worker builds disagree on the netlist");
  }
  return nl;
}

sim::ExecutionOptions Workload::exec(const RunDescriptor& desc) const {
  sim::ExecutionOptions e;
  e.samples_per_shard = desc.samples_per_shard;
  e.block_width = desc.block_width;
  e.threads = 0;  // local pool's width; invisible in the result
  return e;
}

void finalize_descriptor(RunDescriptor& desc) {
  if (desc.task_kind == TaskKind::kSstaGrid) {
    const netlist::Netlist nl = build_grid_stage(desc);
    desc.netlist_hash =
        netlist::fnv1a_fold(netlist::kFnvOffsetBasis, nl.structural_hash());
    desc.root_seed = derive_root_seed(desc.seed);
    return;
  }
  if (desc.n_samples == 0)
    throw std::invalid_argument("dist: descriptor with zero samples");
  const std::unique_ptr<Workload> w = Workload::make(desc);
  desc.netlist_hash = w->stage_hash();
  desc.root_seed = derive_root_seed(desc.seed);
}

mc::McResult run_local(const RunDescriptor& desc) {
  const std::unique_ptr<Workload> w = Workload::make(desc);
  stats::Rng rng(desc.seed);
  return w->engine().run(desc.n_samples, rng, w->exec(desc));
}

}  // namespace statpipe::dist
