// The paper's central object: a pipelined design whose per-stage delays are
// Gaussian random variables, analyzed statistically.
//
//   SD_i = Tc-q + T_comb,i + T_setup        (section 2.1)
//   T_P  = max_i SD_i                       (eq. 1)
//   Yield(T) = Pr{T_P <= T}                 (eq. 2)
//
// Each stage delay carries one variance decomposition into a die-shared
// (inter-die) component s_i and a stage-private one p_i, so the model is
// one-factor: SD_i = mu_i + s_i*Z + p_i*e_i with Z, e_i iid N(0,1).  The
// implied stage correlation  rho_ij = s_i * s_j / (sigma_i * sigma_j)  feeds
// Clark's reduction (eqs. 4-6); stage_factors() hands the same loadings to
// the stage-level Monte-Carlo.  A uniform correlation override supports the
// paper's rho-sweep studies (Fig. 3b, 5b): it sets s_i = sqrt(rho)*sigma_i
// and p_i = sqrt(1 - rho)*sigma_i.
//
// Layer contract (src/core, see docs/ARCHITECTURE.md): owns the paper's
// analytical modeling — the pipeline model, the characterized-pipeline
// bridge, design space, binning and balancing.  May depend on every layer
// below (including sta's characterizations and sim's fan-out); must not
// depend on src/opt: optimizers consume core models, never the reverse.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stats/clark.h"
#include "stats/gaussian.h"
#include "stats/matrix.h"

namespace statpipe::core {

/// One pipe stage at the abstraction the analytical model consumes.  The
/// constructor, and PipelineModel's for every stage it is given, throws
/// std::invalid_argument naming the field unless the mean and area are
/// finite, sigma is finite and >= 0, and sigma_inter is finite and in
/// [0, sigma].
struct StageModel {
  std::string name;
  stats::Gaussian comb;       ///< T_comb distribution [ps]
  double sigma_inter = 0.0;   ///< die-shared part of comb.sigma [ps]
  double area = 0.0;          ///< stage area [min-inv areas]

  /// Stage-private sigma: sqrt(sigma^2 - sigma_inter^2).
  double sigma_private() const;

  StageModel() = default;
  StageModel(std::string n, stats::Gaussian c, double s_inter = 0.0,
             double a = 0.0);
};

/// Latch (flip-flop) timing overhead added to every stage delay.  Every
/// field must be finite and >= 0 (PipelineModel checks).
struct LatchOverhead {
  double mean = 0.0;          ///< Tc-q + Tsetup [ps]
  double sigma_inter = 0.0;   ///< die-shared sigma [ps]
  double sigma_random = 0.0;  ///< latch-private sigma [ps]
};

/// One-factor loadings of a stage delay:
/// SD_i = mean + shared * Z + independent * e_i, with the die-shared Z and
/// the stage-private e_i iid N(0,1).
struct StageFactors {
  double mean = 0.0;
  double shared = 0.0;       ///< loading on the die-shared Z [ps]
  double independent = 0.0;  ///< loading on the stage-private e_i [ps]
};

class PipelineModel {
 public:
  explicit PipelineModel(std::vector<StageModel> stages,
                         LatchOverhead latch = {});

  std::size_t stage_count() const noexcept { return stages_.size(); }
  const std::vector<StageModel>& stages() const noexcept { return stages_; }
  const StageModel& stage(std::size_t i) const { return stages_.at(i); }
  const LatchOverhead& latch() const noexcept { return latch_; }

  /// Forces rho_ij = rho for all i != j instead of the variance-derived
  /// correlation (the paper's correlation sweeps).  Throws
  /// std::invalid_argument unless rho is in [0, 1] (NaN fails).
  void set_uniform_correlation(double rho);
  void clear_correlation_override();

  /// Total stage delay SD_i = latch + comb_i [Gaussian].
  stats::Gaussian stage_delay(std::size_t i) const;
  std::vector<stats::Gaussian> stage_delays() const;

  /// Stage i's one-factor loadings: the variance-derived split (latch plus
  /// stage inter-die sigma shared, the rest private), or sqrt(rho) and
  /// sqrt(1 - rho) of stage_delay(i).sigma under the uniform override.
  /// shared^2 + independent^2 is stage_delay(i).sigma^2, and
  /// shared_i * shared_j / (sigma_i * sigma_j) is correlation()(i, j).
  StageFactors stage_factors(std::size_t i) const;

  /// Stage-delay correlation matrix (variance-derived or override).
  stats::Matrix correlation() const;

  /// (mu_T, sigma_T) of T_P = max_i SD_i via Clark's reduction (eqs. 4-6).
  stats::Gaussian delay_distribution(
      stats::ClarkOrdering ordering =
          stats::ClarkOrdering::kIncreasingMean) const;

  /// Yield at T_TARGET from the Gaussian approximation of T_P (eq. 9).
  double yield(double t_target) const;

  /// Exact yield for *independent* stages: prod_i Phi((T-mu_i)/sigma_i)
  /// (eq. 8).  Ignores correlations by construction.
  double yield_independent(double t_target) const;

  /// Smallest T with yield(T) >= y (eq. 9 inverted).
  double target_delay_for_yield(double y) const;

  /// Sum of stage areas.
  double total_area() const;

  /// Jensen lower bound on mu_T: max_i E[SD_i] (eq. 3).
  double mean_lower_bound() const;

 private:
  std::vector<StageModel> stages_;
  LatchOverhead latch_;
  std::optional<double> rho_override_;
};

}  // namespace statpipe::core
