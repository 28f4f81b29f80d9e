#include "stats/clark.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "stats/lanes.h"

namespace statpipe::stats {

namespace {
// Below this, X1 - X2 is treated as deterministic and the max is exact.
constexpr double kDegenerateA = 1e-12;

// clark_max's input check, written so NaN fails both tests.  The lane
// kernel (canonical_max_lanes, stats/lanes_kernels.inl) accumulates the
// same two tests as a flag instead of throwing.
void check_inputs(double sigma1, double sigma2, double rho) {
  if (!(sigma1 >= 0.0) || !(sigma2 >= 0.0))
    throw std::invalid_argument("clark_max: negative or NaN sigma");
  if (!(rho >= -1.0 - 1e-9 && rho <= 1.0 + 1e-9))
    throw std::invalid_argument("clark_max: |rho| > 1 or NaN");
}
}  // namespace

ClarkMax clark_max(const Gaussian& x1, const Gaussian& x2, double rho) {
  check_inputs(x1.sigma, x2.sigma, rho);
  rho = std::clamp(rho, -1.0, 1.0);

  const double s1 = x1.sigma, s2 = x2.sigma;
  const double a2 = std::max(s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2, 0.0);
  const double a = std::sqrt(a2);

  if (a < kDegenerateA) {
    // X1 - X2 is (numerically) a constant: the max is just the larger input.
    const Gaussian& m = x1.mean >= x2.mean ? x1 : x2;
    const double alpha = x1.mean >= x2.mean
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
    return {m, alpha, a, x1.mean >= x2.mean ? 1.0 : 0.0};
  }

  const double alpha = (x1.mean - x2.mean) / a;
  const lanes::NormalCore g = lanes::normal_core(alpha);
  const double cdf_a = g.cdf, cdf_ma = g.sf, pdf_a = g.pdf;

  const double m1 = x1.mean * cdf_a + x2.mean * cdf_ma + a * pdf_a;
  const double m2 = (x1.mean * x1.mean + s1 * s1) * cdf_a +
                    (x2.mean * x2.mean + s2 * s2) * cdf_ma +
                    (x1.mean + x2.mean) * a * pdf_a;
  const double var = std::max(m2 - m1 * m1, 0.0);

  return {{m1, std::sqrt(var)}, alpha, a, cdf_a};
}

double clark_correlation(const Gaussian& x1, const Gaussian& x2,
                         const ClarkMax& cm, double rho13, double rho23) {
  if (cm.max.sigma <= 0.0) return 0.0;
  // Cov(X3, max) = s3 * [s1 rho13 Phi(alpha) + s2 rho23 Phi(-alpha)]
  // => rho(X3, max) = [s1 rho13 Phi(alpha) + s2 rho23 Phi(-alpha)] / sd(max)
  const double num =
      x1.sigma * rho13 * cm.phi_a + x2.sigma * rho23 * (1.0 - cm.phi_a);
  return std::clamp(num / cm.max.sigma, -1.0, 1.0);
}

namespace {

std::vector<std::size_t> make_order(const std::vector<Gaussian>& vars,
                                    ClarkOrdering ordering) {
  std::vector<std::size_t> order(vars.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (ordering) {
    case ClarkOrdering::kIncreasingMean:
      std::stable_sort(order.begin(), order.end(), [&](auto i, auto j) {
        return vars[i].mean < vars[j].mean;
      });
      break;
    case ClarkOrdering::kDecreasingMean:
      std::stable_sort(order.begin(), order.end(), [&](auto i, auto j) {
        return vars[i].mean > vars[j].mean;
      });
      break;
    case ClarkOrdering::kAsGiven:
      break;
  }
  return order;
}

}  // namespace

Gaussian clark_max_n(const std::vector<Gaussian>& vars,
                     const Matrix& correlation, ClarkOrdering ordering) {
  const std::size_t n = vars.size();
  if (n == 0) throw std::invalid_argument("clark_max_n: no variables");
  if (correlation.size() != n)
    throw std::invalid_argument("clark_max_n: correlation size mismatch");
  if (n == 1) return vars[0];

  const auto order = make_order(vars, ordering);

  // Running max M and its correlation with every original variable.
  Gaussian m = vars[order[0]];
  std::vector<double> rho_m(n);  // rho(M, X_j), indexed by original id
  for (std::size_t j = 0; j < n; ++j) rho_m[j] = correlation(order[0], j);

  for (std::size_t k = 1; k < n; ++k) {
    const std::size_t idx = order[k];
    const Gaussian& x = vars[idx];
    const double rho_mx = rho_m[idx];
    const ClarkMax cm = clark_max(m, x, rho_mx);

    // Update rho(new M, X_j) for all not-yet-consumed variables (eq. 6).
    std::vector<double> rho_next(n, 0.0);
    for (std::size_t t = k + 1; t < n; ++t) {
      const std::size_t j = order[t];
      rho_next[j] =
          clark_correlation(m, x, cm, rho_m[j], correlation(idx, j));
    }
    rho_m = std::move(rho_next);
    m = cm.max;
  }
  return m;
}

Gaussian clark_max_n(const std::vector<Gaussian>& vars, ClarkOrdering ordering) {
  return clark_max_n(vars, Matrix::identity(vars.size()), ordering);
}

}  // namespace statpipe::stats
