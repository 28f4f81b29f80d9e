#include "sta/ssta.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats/lanes.h"
#include "stats/simd.h"

namespace statpipe::sta {

double CanonicalDelay::sigma() const noexcept { return std::sqrt(variance()); }

stats::Gaussian CanonicalDelay::as_gaussian() const { return {mu, sigma()}; }

double CanonicalDelay::correlation(const CanonicalDelay& other) const noexcept {
  const double s1 = sigma(), s2 = other.sigma();
  if (s1 <= 0.0 || s2 <= 0.0) return 0.0;
  return std::clamp(
      (b_inter * other.b_inter + b_sys * other.b_sys) / (s1 * s2), -1.0, 1.0);
}

CanonicalDelay operator+(const CanonicalDelay& a,
                         const CanonicalDelay& b) noexcept {
  return {a.mu + b.mu, a.b_inter + b.b_inter,
          std::sqrt(a.sigma_ind * a.sigma_ind + b.sigma_ind * b.sigma_ind),
          a.b_sys + b.b_sys};
}

CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b) {
  const double rho = a.correlation(b);
  const auto cm = stats::clark_max(a.as_gaussian(), b.as_gaussian(), rho);
  // Re-projection onto the canonical form: each shared coefficient matches
  // Cov(max, Z) = b_a*Phi(alpha) + b_b*Phi(-alpha) (Clark eq. 6).  The
  // lane kernel (canonical_max_lanes, stats/lanes_kernels.inl) runs this
  // exact sequence, its branches as selects.
  const double w = cm.phi_a;
  double bi = a.b_inter * w + b.b_inter * (1.0 - w);
  double bs = a.b_sys * w + b.b_sys * (1.0 - w);
  const double var = cm.max.variance();
  const double resid = var - bi * bi - bs * bs;
  CanonicalDelay r;
  r.mu = cm.max.mean;
  if (resid >= 0.0) {
    r.b_inter = bi;
    r.b_sys = bs;
    r.sigma_ind = std::sqrt(resid);
  } else if (var > 0.0) {
    // Moment matching overshot the shared part: rescale the b's so the
    // total variance is preserved exactly.
    const double scale = std::sqrt(var / (bi * bi + bs * bs));
    r.b_inter = bi * scale;
    r.b_sys = bs * scale;
    r.sigma_ind = 0.0;
  }
  return r;
}

CanonicalDelay gate_canonical_delay(const netlist::Netlist& nl,
                                    netlist::GateId id,
                                    const device::AlphaPowerModel& model,
                                    const process::VariationSpec& spec,
                                    const SstaOptions& opt) {
  const auto& g = nl.gate(id);
  if (g.is_pseudo()) return {};
  const double load = nl.load_of(id, opt.output_load);
  const auto sig = model.delay_sigmas(g.kind, g.size, load, spec);
  CanonicalDelay d;
  d.mu = model.nominal_delay(g.kind, g.size, load);
  d.b_inter = sig.inter;
  d.b_sys = sig.systematic;  // stage-wide shared (correlation length >> stage)
  d.sigma_ind = sig.random;
  return d;
}

CanonicalDelay analyze_ssta(const netlist::Netlist& nl,
                            const device::AlphaPowerModel& model,
                            const process::VariationSpec& spec,
                            const SstaOptions& opt) {
  std::vector<CanonicalDelay> arrival(nl.size());
  for (netlist::GateId id = 0; id < nl.size(); ++id)
    arrival[id] = gate_canonical_delay(nl, id, model, spec, opt);
  return fold_ssta(nl, arrival);
}

CanonicalDelay fold_ssta(const netlist::Netlist& nl,
                         std::vector<CanonicalDelay>& arrival) {
  if (nl.outputs().empty())
    throw std::logic_error("ssta: netlist has no primary outputs");
  if (arrival.size() != nl.size())
    throw std::invalid_argument("ssta: one delay per gate expected");
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = nl.gate(id);
    if (g.is_pseudo()) continue;
    CanonicalDelay in{};
    bool first = true;
    for (netlist::GateId f : g.fanins) {
      in = first ? arrival[f] : canonical_max(in, arrival[f]);
      first = false;
    }
    arrival[id] = in + arrival[id];
  }
  CanonicalDelay out{};
  bool first = true;
  for (netlist::GateId o : nl.outputs()) {
    out = first ? arrival[o] : canonical_max(out, arrival[o]);
    first = false;
  }
  return out;
}

namespace {

/// Doubles every kernel batch of a level is padded to: a whole number of
/// vectors on every backend (2, 4 or 8 doubles per register), so no batch
/// ends in the kernel's scalar remainder loop.
constexpr std::size_t kPadLanes = stats::lanes::kWidth;

CanonicalLanes offset(const CanonicalLanes& v, std::size_t off) {
  return {v.mu + off, v.b_inter + off, v.sigma_ind + off, v.b_sys + off};
}

/// to[k] = from[k] for k < n.  A loop rather than std::copy_n: at the
/// one-lane fold's compile-time n = 1 it is four moves, not four memmove
/// calls.
void copy_lanes(const CanonicalLanes& from, const CanonicalLanes& to,
                std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) to.store(k, from.load(k));
}

/// acc[k] = canonical_max(acc[k], other[k]) for k < n through kt's kernel;
/// true when some lane failed clark_max's input check.
bool max_lanes(const stats::simd::KernelTable& kt, const CanonicalLanes& acc,
               const CanonicalLanes& other, std::size_t n) {
  return kt.canonical_max_lanes(acc.mu, acc.b_inter, acc.sigma_ind,
                                acc.b_sys, other.mu, other.b_inter,
                                other.sigma_ind, other.b_sys, n);
}

/// fold_ssta's canonical_max chain over the arrivals of rows[0 .. count) in
/// lane k: the scalar replay of a kernel call that flagged a lane, so the
/// bad lane throws stats::clark_max's own exception.
void replay_chain(CanonicalLaneArrays& arrival, const netlist::GateId* rows,
                  std::size_t count, std::size_t k) {
  CanonicalDelay in = arrival.at(rows[0]).load(k);
  for (std::size_t q = 1; q < count; ++q)
    in = canonical_max(in, arrival.at(rows[q]).load(k));
}

[[noreturn]] void unreplayed_fault() {
  throw std::logic_error(
      "fold_ssta_lanes: the lane kernel flagged a lane the scalar operator "
      "accepts");
}

}  // namespace

LevelSchedule::LevelSchedule(const netlist::Netlist& nl, std::size_t lanes)
    : nl_(nl), lanes_(lanes), acc_(0, 0), other_(0, 0) {
  const std::vector<std::size_t> level = nl.levels();
  const std::vector<netlist::GateId>& topo = nl.topological_order();
  const auto& gates = nl.gates();
  std::vector<std::size_t> fanin_count(gates.size());
  for (netlist::GateId id = 0; id < gates.size(); ++id)
    fanin_count[id] = gates[id].fanins.size();
  auto fanins = [&](netlist::GateId id) { return fanin_count[id]; };
  gates_.reserve(gates.size());
  rows_.reserve(std::accumulate(fanin_count.begin(), fanin_count.end(),
                                std::size_t{0}));
  std::vector<netlist::GateId> cut;  // one level's real gates, topo order
  std::size_t max_slots = 0, max_rows = 0;
  level_begin_.push_back(0);
  step_begin_.push_back(0);
  for (std::size_t i = 0; i < topo.size();) {
    const std::size_t lvl = level[topo[i]];
    cut.clear();
    std::size_t positions = 1;
    for (; i < topo.size() && level[topo[i]] == lvl; ++i)
      if (!gates[topo[i]].is_pseudo()) {
        cut.push_back(topo[i]);
        positions = std::max(positions, fanins(topo[i]));
      }
    if (i < topo.size() && level[topo[i]] < lvl)
      throw std::logic_error("LevelSchedule: the topological order of '" +
                             nl.name() + "' is not sorted by logic level");
    if (cut.empty()) continue;  // pseudo-gates only
    // Slots by ascending fanin count, topological order within a count.
    const std::size_t first = gates_.size();
    for (std::size_t c = 0; c <= positions; ++c)
      for (netlist::GateId id : cut)
        if (fanins(id) == c) gates_.push_back(id);
    const std::size_t m = cut.size();
    for (std::size_t p = 0, s = 0; p < positions; ++p) {
      while (s < m && fanins(gates_[first + s]) <= p) ++s;
      steps_.push_back({p, s, rows_.size()});
      for (std::size_t j = s; j < m; ++j)
        rows_.push_back(gates[gates_[first + j]].fanins[p]);
      if (p > 0) max_rows = std::max(max_rows, m - s);
    }
    max_slots = std::max(max_slots, m);
    level_begin_.push_back(gates_.size());
    step_begin_.push_back(steps_.size());
  }
  acc_ = CanonicalLaneArrays(1, max_slots * lanes + kPadLanes);
  other_ = CanonicalLaneArrays(1, max_rows * lanes + kPadLanes);
}

template <std::size_t kLanes>
void LevelSchedule::fold(CanonicalLaneArrays& arrival,
                         const CanonicalLanes& out) {
  const std::size_t L = kLanes > 0 ? kLanes : lanes_;
  const stats::simd::KernelTable& kt = stats::simd::kernels();
  const auto& gates = nl_.gates();
  const CanonicalLanes acc = acc_.at(0);
  const CanonicalLanes other = other_.at(0);
  for (std::size_t l = 0; l + 1 < level_begin_.size(); ++l) {
    const netlist::GateId* ids = gates_.data() + level_begin_[l];
    const std::size_t m = level_begin_[l + 1] - level_begin_[l];
    // Fanin position 0: fold_ssta's `in` starts at the first fanin's
    // arrival, or at {} for a gate without fanins.
    const std::size_t t0 = step_begin_[l];
    const std::size_t none = steps_[t0].first_slot;
    for (std::size_t j = 0; j < none * L; ++j) acc.store(j, {});
    for (std::size_t i = none; i < m; ++i)
      copy_lanes(arrival.at(rows_[steps_[t0].rows + i - none]),
                 offset(acc, i * L), L);
    for (std::size_t t = t0 + 1; t < step_begin_[l + 1]; ++t) {
      const Step& step = steps_[t];
      const netlist::GateId* rows = rows_.data() + step.rows;
      const std::size_t count = m - step.first_slot;
      for (std::size_t i = 0; i < count; ++i)
        copy_lanes(arrival.at(rows[i]), offset(other, i * L), L);
      // Pad to whole vectors with copies of the batch's first lane; the
      // copies land past the level's slots and are never read.
      const std::size_t n = count * L;
      const std::size_t padded = (n + kPadLanes - 1) / kPadLanes * kPadLanes;
      const CanonicalLanes a = offset(acc, step.first_slot * L);
      for (std::size_t j = n; j < padded; ++j) {
        a.store(j, a.load(0));
        other.store(j, other.load(0));
      }
      if (max_lanes(kt, a, other, padded)) {
        for (std::size_t i = step.first_slot; i < m; ++i)
          for (std::size_t k = 0; k < L; ++k)
            replay_chain(arrival, gates[ids[i]].fanins.data(),
                         step.position + 1, k);
        unreplayed_fault();
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      const CanonicalLanes d = arrival.at(ids[i]);
      for (std::size_t k = 0; k < L; ++k)
        d.store(k, acc.load(i * L + k) + d.load(k));
    }
  }
  // The critical output: one chain over the outputs, in order.
  const std::vector<netlist::GateId>& outs = nl_.outputs();
  copy_lanes(arrival.at(outs[0]), out, L);
  for (std::size_t i = 1; i < outs.size(); ++i) {
    if (max_lanes(kt, out, arrival.at(outs[i]), L)) {
      for (std::size_t k = 0; k < L; ++k)
        replay_chain(arrival, outs.data(), i + 1, k);
      unreplayed_fault();
    }
  }
}

void fold_ssta_lanes(LevelSchedule& schedule, CanonicalLaneArrays& arrival,
                     const CanonicalLanes& out) {
  const netlist::Netlist& nl = schedule.nl_;
  if (nl.outputs().empty())
    throw std::logic_error("ssta: netlist has no primary outputs");
  if (arrival.lanes != schedule.lanes_ ||
      arrival.mu.size() != nl.size() * schedule.lanes_)
    throw std::invalid_argument("ssta: one delay per gate and lane expected");
  // The one-lane fold (the LR sizer's) runs its lane loops at a
  // compile-time width of 1.
  if (schedule.lanes_ == 1)
    schedule.fold<1>(arrival, out);
  else
    schedule.fold<0>(arrival, out);
}

}  // namespace statpipe::sta
