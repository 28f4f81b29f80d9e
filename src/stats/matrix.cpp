#include "stats/matrix.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace statpipe::stats {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix uniform_correlation(std::size_t n, double rho) {
  if (n == 0) throw std::invalid_argument("uniform_correlation: n == 0");
  const double lo = n > 1 ? -1.0 / static_cast<double>(n - 1) : -1.0;
  if (!(rho >= lo - 1e-12 && rho <= 1.0 + 1e-12))
    throw std::invalid_argument("uniform_correlation: rho outside valid range");
  Matrix m(n, rho);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix spatial_correlation(const std::vector<double>& positions, double length) {
  if (length <= 0.0)
    throw std::invalid_argument("spatial_correlation: length must be > 0");
  const std::size_t n = positions.size();
  Matrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d = std::abs(positions[i] - positions[j]);
      m(i, j) = m(j, i) = std::exp(-d / length);
    }
  }
  return m;
}

}  // namespace statpipe::stats
