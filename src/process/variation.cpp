#include "process/variation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/telemetry.h"

namespace statpipe::process {

double Technology::sigma_vth_rdf(double width_mult) const {
  if (width_mult <= 0.0)
    throw std::invalid_argument("sigma_vth_rdf: width_mult must be > 0");
  return sigma_vth_rdf_unchecked(width_mult);
}

VariationSpec VariationSpec::intra_only() {
  VariationSpec s;
  s.sigma_vth_inter = 0.0;
  s.sigma_vth_systematic = 0.0;
  s.enable_rdf = true;
  return s;
}

VariationSpec VariationSpec::inter_only(double sigma_v) {
  VariationSpec s;
  s.sigma_vth_inter = sigma_v;
  s.sigma_vth_systematic = 0.0;
  s.enable_rdf = false;
  return s;
}

VariationSpec VariationSpec::inter_intra(double sigma_v_inter,
                                         double sigma_v_systematic,
                                         double corr_length) {
  VariationSpec s;
  s.sigma_vth_inter = sigma_v_inter;
  s.sigma_vth_systematic = sigma_v_systematic;
  s.correlation_length = corr_length;
  s.enable_rdf = true;
  return s;
}

void check_variation_spec(const VariationSpec& spec) {
  const std::pair<const char*, double> sigmas[] = {
      {"sigma_vth_inter", spec.sigma_vth_inter},
      {"sigma_vth_systematic", spec.sigma_vth_systematic},
      {"sigma_l_inter_rel", spec.sigma_l_inter_rel},
      {"sigma_l_systematic_rel", spec.sigma_l_systematic_rel}};
  for (const auto& [field, v] : sigmas)
    if (!(std::isfinite(v) && v >= 0.0))
      throw std::invalid_argument("variation spec: " + std::string(field) +
                                  " " + std::to_string(v) +
                                  " is not finite and >= 0");
  if (spec.has_systematic() && !(spec.correlation_length > 0.0))
    throw std::invalid_argument(
        "variation spec: correlation_length " +
        std::to_string(spec.correlation_length) +
        " must be > 0 with a systematic component");
}

double DieSample::dvth_at(std::size_t i, double width_mult) const {
  double d = dvth_inter;
  if (i < dvth_systematic.size()) d += dvth_systematic[i];
  if (i < dvth_random.size()) d += dvth_random[i] / std::sqrt(width_mult);
  return d;
}

double DieSample::dvth_shared_at(std::size_t i) const {
  double d = dvth_inter;
  if (i < dvth_systematic.size()) d += dvth_systematic[i];
  return d;
}

double DieSample::dl_rel_at(std::size_t i) const {
  double d = dl_inter_rel;
  if (i < dl_systematic_rel.size()) d += dl_systematic_rel[i];
  return d;
}

double DieBlock::dvth_at(std::size_t i, std::size_t j,
                         double width_mult) const {
  double d = dvth_inter[j];
  if (!dvth_systematic.empty()) d += dvth_systematic[i * width + j];
  if (!dvth_random.empty())
    d += dvth_random[i * width + j] / std::sqrt(width_mult);
  return d;
}

double DieBlock::dvth_shared_at(std::size_t i, std::size_t j) const {
  double d = dvth_inter[j];
  if (!dvth_systematic.empty()) d += dvth_systematic[i * width + j];
  return d;
}

double DieBlock::dl_rel_at(std::size_t i, std::size_t j) const {
  double d = dl_inter_rel[j];
  if (!dl_systematic_rel.empty()) d += dl_systematic_rel[i * width + j];
  return d;
}

VariationSampler::VariationSampler(Technology tech, VariationSpec spec,
                                   std::vector<double> site_positions)
    : tech_(tech), spec_(spec), positions_(std::move(site_positions)) {
  if (positions_.empty())
    throw std::invalid_argument("VariationSampler: no device sites");
  check_variation_spec(spec_);
  has_systematic_ = spec_.has_systematic();
  if (!has_systematic_) return;
  const double L = spec_.correlation_length;
  // (position, index) pairs sort into the stable position order.
  const std::size_t n = positions_.size();
  std::vector<std::pair<double, std::size_t>> sorted(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(positions_[i]))
      throw std::invalid_argument(
          "VariationSampler: site positions must be finite");
    sorted[i] = {positions_[i], i};
  }
  std::sort(sorted.begin(), sorted.end());
  order_.resize(n);
  r_.resize(n);
  s_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    order_[k] = sorted[k].second;
    if (k == 0) continue;
    const double d = sorted[k].first - sorted[k - 1].first;
    r_[k] = std::exp(-d / L);
    // sqrt(1 - r^2) through expm1, which stays accurate at small gaps.
    s_[k] = std::sqrt(-std::expm1(-2.0 * d / L));
  }
}

void VariationSampler::correlate_field(double* f, std::size_t w) const {
  // Lanes innermost: lane j of a width-w call executes exactly the w == 1
  // sequence on its own column.
  for (std::size_t k = 1; k < order_.size(); ++k) {
    const double* prev = f + order_[k - 1] * w;
    double* cur = f + order_[k] * w;
    const double r = r_[k], s = s_[k];
    for (std::size_t j = 0; j < w; ++j) cur[j] = r * prev[j] + s * cur[j];
  }
}

DieSample VariationSampler::sample(stats::Rng& rng) const {
  const std::size_t n = positions_.size();
  DieSample d;
  // Inter draws as sigma * normal() — phrased through the strided core so
  // the scalar path computes the exact expression the lane-batched kernel
  // writes (a literal normal(0.0, sigma) would prepend `0.0 +`, which
  // flushes a -0.0 draw to +0.0 and silently breaks the bitwise contract
  // in that one-in-2^55 corner).
  if (spec_.sigma_vth_inter > 0.0)
    rng.normal_fill_scaled(spec_.sigma_vth_inter, &d.dvth_inter, 1);
  if (spec_.sigma_l_inter_rel > 0.0)
    rng.normal_fill_scaled(spec_.sigma_l_inter_rel, &d.dl_inter_rel, 1);

  if (has_systematic_) {
    // One correlated standard-normal field drives both Vth and L systematic
    // components (they share the same lithographic origin).
    std::vector<double> field;
    rng.normal_fill(field, n);
    correlate_field(field.data(), 1);
    if (spec_.sigma_vth_systematic > 0.0) {
      d.dvth_systematic.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        d.dvth_systematic[i] = spec_.sigma_vth_systematic * field[i];
    }
    if (spec_.sigma_l_systematic_rel > 0.0) {
      d.dl_systematic_rel.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        d.dl_systematic_rel[i] = spec_.sigma_l_systematic_rel * field[i];
    }
  }

  if (spec_.enable_rdf) {
    const double s_rdf = tech_.sigma_vth_rdf(1.0);  // unit-width sigma
    d.dvth_random.resize(n);
    rng.normal_fill_scaled(s_rdf, d.dvth_random.data(), n);
  }
  return d;
}

void VariationSampler::sample_block_into(stats::Rng* lane_rngs,
                                         std::size_t width, DieBlock& d,
                                         BlockWorkspace& ws) const {
  // Single source of truth for the kernel width rule: throws on 0 or
  // beyond the active SIMD backend's max_width() — validated, never
  // clamped.
  const std::size_t W = stats::lanes::validated_width(width);
  const std::size_t n = positions_.size();
  d.width = W;
  d.sites = n;
  d.dvth_inter.resize(W);
  d.dl_inter_rel.resize(W);
  const bool sys_vth = has_systematic_ && spec_.sigma_vth_systematic > 0.0;
  const bool sys_l = has_systematic_ && spec_.sigma_l_systematic_rel > 0.0;
  d.dvth_systematic.resize(sys_vth ? n * W : 0);
  d.dl_systematic_rel.resize(sys_l ? n * W : 0);
  d.dvth_random.resize(spec_.enable_rdf ? n * W : 0);

  // Lane j's draw sequence is exactly sample()'s on lane_rngs[j] (inter
  // draws, the field's standard normals, then per-site RDF); each lane owns
  // its stream, so batching the draws reorders them only *across* lanes,
  // which no lane's stream can observe.  All draws below run through one
  // RngBlock — W interleaved engine states advanced by the active SIMD
  // backend's draw kernels (stats/simd.h normal_fill_lanes), each lane
  // bitwise on its own stream — and the advanced states are written back
  // to lane_rngs at the end for the consumers that follow (latch draws).
  //
  // Phase 1 — inter shifts, then the field's standard normals drawn
  // site-major straight into ws.field (lane j at [i*W + j]): the layout the
  // field recursion wants, with no per-lane transpose pass.
  // mc.draw / mc.chol spans: the block-MC phase breakdown the bench harness
  // and the Chrome trace both read (docs/OBSERVABILITY.md).  Phases 1 and 3
  // fold into one mc.draw aggregate; the field recursion is mc.chol (the
  // name predates the recursion and is kept for the tools that require it).
  static const obs::SpanId kDraw("mc.draw");
  static const obs::SpanId kChol("mc.chol");
  stats::RngBlock rb;
  rb.pack(lane_rngs, W);
  {
    obs::ScopedSpan draw_span(kDraw, static_cast<std::int64_t>(W));
    if (spec_.sigma_vth_inter > 0.0)
      rb.normal_fill(spec_.sigma_vth_inter, d.dvth_inter.data(), 1, W);
    else
      std::fill(d.dvth_inter.begin(), d.dvth_inter.end(), 0.0);
    if (spec_.sigma_l_inter_rel > 0.0)
      rb.normal_fill(spec_.sigma_l_inter_rel, d.dl_inter_rel.data(), 1, W);
    else
      std::fill(d.dl_inter_rel.begin(), d.dl_inter_rel.end(), 0.0);
    if (has_systematic_) {
      ws.field.resize(n * W);
      rb.normal_fill(1.0, ws.field.data(), n, W);
    }
  }

  // Phase 2 — the field recursion for all W fields at once (per lane
  // exactly sample()'s operations), then the per-component sigma
  // scaling as contiguous SoA sweeps.
  if (has_systematic_) {
    obs::ScopedSpan chol_span(kChol, static_cast<std::int64_t>(W));
    correlate_field(ws.field.data(), W);
    if (sys_vth)
      for (std::size_t i = 0; i < n * W; ++i)
        d.dvth_systematic[i] = spec_.sigma_vth_systematic * ws.field[i];
    if (sys_l)
      for (std::size_t i = 0; i < n * W; ++i)
        d.dl_systematic_rel[i] = spec_.sigma_l_systematic_rel * ws.field[i];
  }

  // Phase 3 — RDF draws, batched site-major into the block (the target is
  // already [i*W + j], exactly the kernel's output layout).
  if (spec_.enable_rdf) {
    obs::ScopedSpan draw_span(kDraw, static_cast<std::int64_t>(W));
    const double s_rdf = tech_.sigma_vth_rdf(1.0);  // unit-width sigma
    rb.normal_fill(s_rdf, d.dvth_random.data(), n, W);
  }
  rb.unpack(lane_rngs);
}

std::vector<double> linear_sites(std::size_t n) {
  if (n == 0) throw std::invalid_argument("linear_sites: n == 0");
  std::vector<double> p(n);
  if (n == 1) {
    p[0] = 0.5;
    return p;
  }
  for (std::size_t i = 0; i < n; ++i)
    p[i] = static_cast<double>(i) / static_cast<double>(n - 1);
  return p;
}

}  // namespace statpipe::process
