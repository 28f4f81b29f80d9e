#include "stats/gaussian.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "stats/lanes.h"

namespace statpipe::stats {

double normal_pdf(double x) noexcept { return lanes::normal_core(x).pdf; }

double normal_cdf(double x) noexcept { return lanes::normal_core(x).cdf; }

double normal_sf(double x) noexcept { return lanes::normal_core(x).sf; }

namespace {

// Acklam's rational approximation to the inverse normal CDF.
// |relative error| < 1.15e-9 before refinement.
double icdf_acklam(double p) {
  static constexpr double a[6] = {
      -3.969683028665376e+01, 2.209460984245205e+02,  -2.759285104469687e+02,
      1.383577518672690e+02,  -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[5] = {
      -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01,  -1.328068155288572e+01};
  static constexpr double c[6] = {
      -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[4] = {
      7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00};

  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;

  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log1p(-p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double normal_icdf(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("normal_icdf: p must lie in (0,1), got " +
                            std::to_string(p));
  }
  double x = icdf_acklam(p);
  // One Halley refinement: solves Phi(x) - p = 0 to near machine precision.
  const lanes::NormalCore g = lanes::normal_core(x);
  const double e = g.cdf - p;
  const double u = e / g.pdf;               // Newton step
  x -= u / (1.0 + 0.5 * x * u);             // Halley correction
  return x;
}

Gaussian iid_sum(const Gaussian& unit, double n) {
  if (n < 0.0) throw std::domain_error("iid_sum: n must be >= 0");
  return {n * unit.mean, std::sqrt(n) * unit.sigma};
}

std::string to_string(const Gaussian& g) {
  std::ostringstream os;
  os << "N(" << g.mean << ", " << g.sigma << ")";
  return os.str();
}

}  // namespace statpipe::stats
