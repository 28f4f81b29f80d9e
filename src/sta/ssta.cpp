#include "sta/ssta.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

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

namespace {

// Re-projection of a pairwise Clark result onto the canonical form: each
// shared coefficient matches Cov(max, Z) = b_a*Phi(alpha) + b_b*Phi(-alpha)
// (Clark eq. 6).  Shared by the scalar and the lane-batched max so both
// paths execute the identical floating-point sequence.
CanonicalDelay reproject_max(const CanonicalDelay& a, const CanonicalDelay& b,
                             const stats::ClarkMax& cm) {
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

}  // namespace

CanonicalDelay canonical_max(const CanonicalDelay& a, const CanonicalDelay& b) {
  const double rho = a.correlation(b);
  const auto cm = stats::clark_max(a.as_gaussian(), b.as_gaussian(), rho);
  return reproject_max(a, b, cm);
}

void canonical_max_lanes(const CanonicalLanes& acc, const CanonicalLanes& other,
                         std::size_t lanes) {
  // Bitwise the same by this function's contract, and the chunked path
  // below only pays off from two lanes up.
  if (lanes == 1) {
    acc.store(0, canonical_max(acc.load(0), other.load(0)));
    return;
  }
  // Fixed-size chunks keep the SoA scratch (sigmas, correlations, Clark
  // outputs) on the stack while feeding clark_max_lanes contiguous blocks.
  // Per lane the sequence is exactly canonical_max's: correlation ->
  // clark_max -> reproject, so results are bitwise-identical to scalar
  // folding lane by lane.  No per-lane dispatch into the scalar operator:
  // the sigma/correlation prologue below and the Clark kernel itself are
  // straight-line loops over the canonical-form arrays.
  constexpr std::size_t kChunk = stats::lanes::kMaxWidth;  // 64: widest
  // block any SIMD backend accepts, so one chunk feeds even the AVX-512
  // kernel full rows while the stack scratch stays at 4 KiB.
  double s1[kChunk], s2[kChunk], rho[kChunk];
  double cmean[kChunk], csigma[kChunk], calpha[kChunk], ca[kChunk],
      cphi[kChunk];
  for (std::size_t base = 0; base < lanes; base += kChunk) {
    const std::size_t n = std::min(kChunk, lanes - base);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = base + k;
      // sigma() of each side, then the shared-normal correlation — the exact
      // expressions of CanonicalDelay::sigma / ::correlation, with the
      // degenerate zero-sigma case resolved by select on a sanitized divisor.
      const double v1 = acc.b_inter[i] * acc.b_inter[i] +
                        acc.b_sys[i] * acc.b_sys[i] +
                        acc.sigma_ind[i] * acc.sigma_ind[i];
      const double v2 = other.b_inter[i] * other.b_inter[i] +
                        other.b_sys[i] * other.b_sys[i] +
                        other.sigma_ind[i] * other.sigma_ind[i];
      s1[k] = std::sqrt(v1);
      s2[k] = std::sqrt(v2);
      const bool zero = s1[k] <= 0.0 || s2[k] <= 0.0;
      const double denom = stats::lanes::select(zero, 1.0, s1[k] * s2[k]);
      const double num = acc.b_inter[i] * other.b_inter[i] +
                         acc.b_sys[i] * other.b_sys[i];
      rho[k] = stats::lanes::select(zero, 0.0,
                                    std::clamp(num / denom, -1.0, 1.0));
    }
    const stats::GaussianLanesView ga{acc.mu + base, s1};
    const stats::GaussianLanesView gb{other.mu + base, s2};
    stats::clark_max_lanes(ga, gb, rho, n,
                           {cmean, csigma, calpha, ca, cphi});
    for (std::size_t k = 0; k < n; ++k) {
      const stats::ClarkMax cm{{cmean[k], csigma[k]}, calpha[k], ca[k],
                               cphi[k]};
      acc.store(base + k,
                reproject_max(acc.load(base + k), other.load(base + k), cm));
    }
  }
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

void fold_ssta_lanes(const netlist::Netlist& nl, CanonicalLaneArrays& arrival,
                     const CanonicalLanes& out) {
  if (nl.outputs().empty())
    throw std::logic_error("ssta: netlist has no primary outputs");
  if (arrival.mu.size() != nl.size() * arrival.lanes)
    throw std::invalid_argument("ssta: one delay per gate and lane expected");
  const std::size_t lanes = arrival.lanes;
  // out = fold canonical_max over `ids`, the first copying: fold_ssta's
  // `in` and `out` accumulators, per lane.
  auto fold_max = [&](const std::vector<netlist::GateId>& ids) {
    const CanonicalLanes first = arrival.at(ids.front());
    std::copy_n(first.mu, lanes, out.mu);
    std::copy_n(first.b_inter, lanes, out.b_inter);
    std::copy_n(first.sigma_ind, lanes, out.sigma_ind);
    std::copy_n(first.b_sys, lanes, out.b_sys);
    for (std::size_t i = 1; i < ids.size(); ++i)
      canonical_max_lanes(out, arrival.at(ids[i]), lanes);
  };
  const auto& gates = nl.gates();
  for (netlist::GateId id : nl.topological_order()) {
    const auto& g = gates[id];
    if (g.is_pseudo()) continue;
    if (g.fanins.empty()) {
      for (std::size_t k = 0; k < lanes; ++k) out.store(k, {});
    } else {
      fold_max(g.fanins);
    }
    const CanonicalLanes a = arrival.at(id);
    for (std::size_t k = 0; k < lanes; ++k)
      a.store(k, out.load(k) + a.load(k));
  }
  fold_max(nl.outputs());
}

}  // namespace statpipe::sta
