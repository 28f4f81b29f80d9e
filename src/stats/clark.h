// Clark's moment-matching approximation to the maximum of Gaussian random
// variables (C. E. Clark, "The Greatest of a Finite Set of Random
// Variables", Operations Research 9(2), 1961) — equations (4)-(6) of the
// paper.
//
// Given X1 ~ N(mu1, s1^2), X2 ~ N(mu2, s2^2) with correlation rho:
//
//   a^2   = s1^2 + s2^2 - 2 rho s1 s2
//   alpha = (mu1 - mu2) / a
//   E[max]      = mu1 Phi(alpha) + mu2 Phi(-alpha) + a phi(alpha)
//   E[max^2]    = (mu1^2+s1^2) Phi(alpha) + (mu2^2+s2^2) Phi(-alpha)
//                 + (mu1+mu2) a phi(alpha)
//   Var[max]    = E[max^2] - E[max]^2
//
// and the correlation of max(X1, X2) with a third variable X3 (eq. 6):
//
//   rho(X3, max) = [s1 rho13 Phi(alpha) + s2 rho23 Phi(-alpha)] / sd(max)
//
// The N-variable reduction applies the pairwise operator iteratively,
// approximating each intermediate max as Gaussian; the paper orders the
// variables by increasing mean to minimize the approximation error
// (section 2.4, citing Ross 2003).
#pragma once

#include <cstddef>
#include <vector>

#include "stats/gaussian.h"
#include "stats/matrix.h"

namespace statpipe::stats {

/// Result of the pairwise Clark operator.
struct ClarkMax {
  Gaussian max;    ///< moment-matched Gaussian approximation of max(X1,X2)
  double alpha;    ///< (mu1-mu2)/a — the tie-breaking z-score
  double a;        ///< sd of X1 - X2
  double phi_a;    ///< Phi(alpha), cached for correlation propagation
};

/// Pairwise Clark operator (eqs. 4-5).  Handles the degenerate case a ~ 0
/// (perfectly correlated, equal-variance inputs) by returning the
/// pointwise-dominant input exactly.  Phi(alpha), Phi(-alpha) and
/// phi(alpha) come from one lanes::normal_core call, the same function
/// every backend's canonical_max_lanes kernel (stats/simd.h) runs.
/// Throws std::invalid_argument on a negative or NaN sigma, or a rho that
/// is NaN or outside [-1, 1] by more than 1e-9.
ClarkMax clark_max(const Gaussian& x1, const Gaussian& x2, double rho = 0.0);

/// Correlation of max(X1, X2) with a third Gaussian X3 (eq. 6), given the
/// pairwise result `cm` of (x1, x2) and the input correlations rho13/rho23.
/// The result is clamped to [-1, 1] (moment matching can overshoot by eps).
double clark_correlation(const Gaussian& x1, const Gaussian& x2,
                         const ClarkMax& cm, double rho13, double rho23);

/// Variable-ordering policy for the N-way reduction.
enum class ClarkOrdering {
  kIncreasingMean,  ///< paper's choice: minimizes the approximation error
  kDecreasingMean,  ///< equivalent error bound per Ross 2003
  kAsGiven,         ///< document order (for the ordering ablation)
};

/// Moment-matched Gaussian approximation of max_i X_i for jointly Gaussian
/// X with the given correlation matrix.  Implements the full iterated
/// reduction of eq. (4): at each step the running max M is combined with
/// the next variable, and the correlations rho(M, X_j) of the running max
/// with every *remaining* variable are updated via eq. (6).
///
/// Preconditions: vars non-empty; correlation is vars.size()^2 and valid.
Gaussian clark_max_n(const std::vector<Gaussian>& vars,
                     const Matrix& correlation,
                     ClarkOrdering ordering = ClarkOrdering::kIncreasingMean);

/// Convenience overload for independent variables.
Gaussian clark_max_n(const std::vector<Gaussian>& vars,
                     ClarkOrdering ordering = ClarkOrdering::kIncreasingMean);

}  // namespace statpipe::stats
