// Gaussian (normal) distribution primitives.
//
// The paper's analytical machinery (Clark's operator, yield formulas,
// design-space bounds) is built entirely on the standard-normal pdf phi,
// cdf Phi and quantile Phi^-1.  These are hand-rolled here: the repository
// must not depend on anything beyond the C++ standard library.
//
// Layer contract (src/stats, see docs/ARCHITECTURE.md): the foundation
// layer.  Owns distribution primitives, Clark's max operator (scalar and
// lane-batched), the counter-splittable Rng, matrices and descriptive
// statistics.  Must not include any other src/ subsystem — only the C++
// standard library.
#pragma once

#include <cmath>
#include <stdexcept>
#include <string>

namespace statpipe::stats {

// normal_pdf, normal_cdf and normal_sf are thin wrappers over the one
// branch-free Gaussian core, stats::lanes::normal_core (stats/lanes.h),
// which Clark's max calls directly.  Accuracy against mpmath: relative
// error of min(Phi(x), Phi(-x)) and of phi(x) below 1e-15 for |x| <= 37
// (the tail past that is subnormal); Phi(0) == 0.5 exactly.

/// Standard normal probability density  phi(x) = exp(-x^2/2)/sqrt(2*pi).
double normal_pdf(double x) noexcept;

/// Standard normal cumulative distribution  Phi(x), tail-accurate on both
/// sides: Phi(x) for x < 0 is computed as the tail, never as 1 - Phi(-x).
double normal_cdf(double x) noexcept;

/// Upper-tail probability  Q(x) = 1 - Phi(x) = Phi(-x), tail-accurate.
double normal_sf(double x) noexcept;

/// Inverse standard normal cdf  Phi^-1(p) for p in (0, 1).
///
/// Implementation: Acklam's rational approximation refined with one step of
/// Halley's method on  Phi(x) - p = 0, giving |relative error| < 1e-12.
/// Throws std::domain_error for p outside (0, 1).
double normal_icdf(double p);

/// A scalar Gaussian random variable N(mean, sigma^2); the universal
/// currency of this library (stage delays, gate delays, parameter shifts).
struct Gaussian {
  double mean = 0.0;
  double sigma = 0.0;  ///< standard deviation, must be >= 0

  constexpr Gaussian() = default;
  constexpr Gaussian(double m, double s) : mean(m), sigma(s) {}

  double variance() const noexcept { return sigma * sigma; }

  /// sigma/mu — the paper's "variability" metric (section 3.1).
  /// Requires mean != 0.
  double variability() const {
    if (mean == 0.0) throw std::domain_error("variability undefined for zero mean");
    return sigma / mean;
  }

  /// Pr{X <= x}.
  double cdf(double x) const noexcept {
    if (sigma <= 0.0) return x >= mean ? 1.0 : 0.0;
    return normal_cdf((x - mean) / sigma);
  }

  /// Density at x.
  double pdf(double x) const noexcept {
    if (sigma <= 0.0) return 0.0;
    const double z = (x - mean) / sigma;
    return normal_pdf(z) / sigma;
  }

  /// x such that Pr{X <= x} = p.
  double quantile(double p) const { return mean + sigma * normal_icdf(p); }

  /// Sum of independent Gaussians.
  friend Gaussian operator+(const Gaussian& a, const Gaussian& b) noexcept {
    return {a.mean + b.mean, std::sqrt(a.sigma * a.sigma + b.sigma * b.sigma)};
  }

  /// Deterministic shift.
  friend Gaussian operator+(const Gaussian& a, double c) noexcept {
    return {a.mean + c, a.sigma};
  }

  /// Scaling: c*X ~ N(c*mu, (|c|*sigma)^2).
  friend Gaussian operator*(double c, const Gaussian& a) noexcept {
    return {c * a.mean, std::abs(c) * a.sigma};
  }

  bool operator==(const Gaussian&) const = default;
};

/// Sum of n iid copies: N(n*mu, n*sigma^2).  The inverter-chain relation
/// of eq. (13): mu = NL*mu_min, sigma = sqrt(NL)*sigma_min.
Gaussian iid_sum(const Gaussian& unit, double n);

/// Human-readable "N(mu, sigma)" for diagnostics.
std::string to_string(const Gaussian& g);

}  // namespace statpipe::stats
