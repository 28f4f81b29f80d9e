// Small dense matrices at pipeline-stage granularity: the correlation
// matrices Clark's reduction takes (stats/clark.h) and the dense spatial
// reference the field tests check.
//
// Nothing here factorizes: the stage-level Monte-Carlo samples the
// pipeline model's one-factor form (core::PipelineModel::stage_factors)
// and the per-site field (process/variation.h) uses its exact recursion,
// so neither needs a Cholesky factor.
#pragma once

#include <cstddef>
#include <vector>

namespace statpipe::stats {

/// Dense row-major square matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0) : n_(n), a_(n * n, fill) {}

  std::size_t size() const noexcept { return n_; }
  double& operator()(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a_[i * n_ + j]; }

  static Matrix identity(std::size_t n);

 private:
  std::size_t n_ = 0;
  std::vector<double> a_;
};

/// Builds the N x N correlation matrix with 1 on the diagonal and `rho`
/// everywhere else — the paper's uniform stage-correlation model
/// (Fig. 3(b), Fig. 5(b)).  Throws std::invalid_argument unless
/// -1/(N-1) <= rho <= 1 (NaN fails).
Matrix uniform_correlation(std::size_t n, double rho);

/// Exponential-decay spatial correlation: rho_ij = exp(-d_ij / length).
/// `positions` are 1-D coordinates (pipeline stages laid out along the die;
/// grid cells use their flattened index distance).
Matrix spatial_correlation(const std::vector<double>& positions, double length);

}  // namespace statpipe::stats
