#include "core/pipeline_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace statpipe::core {

namespace {

[[noreturn]] void reject(const std::string& who, const char* field,
                         double value, const char* rule) {
  throw std::invalid_argument(who + ": " + field + " = " +
                              std::to_string(value) + " is not " + rule);
}

// The model's one variance decomposition of SD_i = latch + comb_i.  Shared
// components add linearly (the same inter-die Z); private ones add in
// quadrature.  stage_delay, correlation and stage_factors all read it.
struct Decomposition {
  double mean;
  double shared;       ///< sigma of the die-shared part
  double private_var;  ///< variance of the stage-private part

  double sigma() const { return std::sqrt(shared * shared + private_var); }
};

// The one stage check: the StageModel constructor runs it, and so does
// PipelineModel's on every stage it is handed, however it was built.
void check_stage(const StageModel& s) {
  auto who = [&] { return "StageModel '" + s.name + "'"; };
  if (!std::isfinite(s.comb.mean))
    reject(who(), "mean", s.comb.mean, "finite");
  if (!(std::isfinite(s.comb.sigma) && s.comb.sigma >= 0.0))
    reject(who(), "sigma", s.comb.sigma, "finite and >= 0");
  if (!(std::isfinite(s.sigma_inter) && s.sigma_inter >= 0.0 &&
        s.sigma_inter <= s.comb.sigma + 1e-12))
    reject(who(), "sigma_inter", s.sigma_inter, "finite and in [0, sigma]");
  if (!std::isfinite(s.area)) reject(who(), "area", s.area, "finite");
}

Decomposition decompose(const StageModel& s, const LatchOverhead& latch) {
  const double sp = s.sigma_private();
  return {latch.mean + s.comb.mean, latch.sigma_inter + s.sigma_inter,
          sp * sp + latch.sigma_random * latch.sigma_random};
}

}  // namespace

StageModel::StageModel(std::string n, stats::Gaussian c, double s_inter,
                       double a)
    : name(std::move(n)), comb(c), sigma_inter(s_inter), area(a) {
  check_stage(*this);
}

double StageModel::sigma_private() const {
  const double v = comb.variance() - sigma_inter * sigma_inter;
  return v > 0.0 ? std::sqrt(v) : 0.0;
}

PipelineModel::PipelineModel(std::vector<StageModel> stages,
                             LatchOverhead latch)
    : stages_(std::move(stages)), latch_(latch) {
  if (stages_.empty())
    throw std::invalid_argument("PipelineModel: no stages");
  for (const StageModel& s : stages_) check_stage(s);
  const std::pair<const char*, double> fields[] = {
      {"mean", latch_.mean},
      {"sigma_inter", latch_.sigma_inter},
      {"sigma_random", latch_.sigma_random}};
  for (const auto& [field, value] : fields)
    if (!(std::isfinite(value) && value >= 0.0))
      reject("PipelineModel latch", field, value, "finite and >= 0");
}

void PipelineModel::set_uniform_correlation(double rho) {
  if (!(rho >= 0.0 && rho <= 1.0))
    throw std::invalid_argument("set_uniform_correlation: rho = " +
                                std::to_string(rho) + " is not in [0, 1]");
  rho_override_ = rho;
}

void PipelineModel::clear_correlation_override() { rho_override_.reset(); }

stats::Gaussian PipelineModel::stage_delay(std::size_t i) const {
  const Decomposition d = decompose(stages_.at(i), latch_);
  return {d.mean, d.sigma()};
}

std::vector<stats::Gaussian> PipelineModel::stage_delays() const {
  std::vector<stats::Gaussian> v;
  v.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) v.push_back(stage_delay(i));
  return v;
}

StageFactors PipelineModel::stage_factors(std::size_t i) const {
  const Decomposition d = decompose(stages_.at(i), latch_);
  if (!rho_override_) return {d.mean, d.shared, std::sqrt(d.private_var)};
  const double sigma = d.sigma();
  return {d.mean, std::sqrt(*rho_override_) * sigma,
          std::sqrt(1.0 - *rho_override_) * sigma};
}

stats::Matrix PipelineModel::correlation() const {
  const std::size_t n = stages_.size();
  if (rho_override_) return stats::uniform_correlation(n, *rho_override_);
  std::vector<double> shared(n), sigma(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Decomposition d = decompose(stages_[i], latch_);
    shared[i] = d.shared;
    sigma[i] = d.sigma();
  }
  stats::Matrix m = stats::Matrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double denom = sigma[i] * sigma[j];
      const double rho =
          denom > 0.0 ? std::clamp(shared[i] * shared[j] / denom, 0.0, 1.0)
                      : 0.0;
      m(i, j) = m(j, i) = rho;
    }
  }
  return m;
}

stats::Gaussian PipelineModel::delay_distribution(
    stats::ClarkOrdering ordering) const {
  return stats::clark_max_n(stage_delays(), correlation(), ordering);
}

double PipelineModel::yield(double t_target) const {
  const auto tp = delay_distribution();
  if (tp.sigma <= 0.0) return t_target >= tp.mean ? 1.0 : 0.0;
  return stats::normal_cdf((t_target - tp.mean) / tp.sigma);
}

double PipelineModel::yield_independent(double t_target) const {
  double y = 1.0;
  for (const auto& sd : stage_delays()) y *= sd.cdf(t_target);
  return y;
}

double PipelineModel::target_delay_for_yield(double y) const {
  if (!(y > 0.0 && y < 1.0))
    throw std::invalid_argument("target_delay_for_yield: y outside (0,1)");
  const auto tp = delay_distribution();
  return tp.mean + tp.sigma * stats::normal_icdf(y);
}

double PipelineModel::total_area() const {
  double a = 0.0;
  for (const auto& s : stages_) a += s.area;
  return a;
}

double PipelineModel::mean_lower_bound() const {
  double m = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i)
    m = std::max(m, stage_delay(i).mean);
  return m;
}

}  // namespace statpipe::core
