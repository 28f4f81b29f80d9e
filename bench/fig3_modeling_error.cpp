// Reproduces Figure 3: trend in the analytical model's error in (mu_T,
// sigma_T) with (a) the number of pipeline stages and (b) the stage-delay
// correlation coefficient — plus the variable-ordering ablation the paper
// discusses in section 2.4 (increasing-mean ordering minimizes error).
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/pipeline_model.h"
#include "mc/pipeline_mc.h"

namespace sp = statpipe;
using sp::core::PipelineModel;
using sp::core::StageModel;
using sp::stats::Gaussian;

namespace {

constexpr std::size_t kMcSamples = 400000;

struct Errors {
  double mean_pct;
  double sigma_pct;
};

Errors compare(const PipelineModel& p, sp::stats::ClarkOrdering ordering,
               std::uint64_t seed) {
  sp::mc::StageLevelMonteCarlo mc(p);
  sp::stats::Rng rng(seed);
  const auto truth = mc.run(kMcSamples, rng).tp_estimate();
  const auto model = p.delay_distribution(ordering);
  return {100.0 * std::abs(model.mean - truth.mean) / truth.mean,
          100.0 * std::abs(model.sigma - truth.sigma) / truth.sigma};
}

PipelineModel equal_stage_pipeline(std::size_t n, double rho) {
  std::vector<StageModel> s;
  for (std::size_t i = 0; i < n; ++i)
    s.emplace_back("s" + std::to_string(i), Gaussian{100.0, 5.0}, 0.0, 0.0);
  PipelineModel p(std::move(s), {});
  p.set_uniform_correlation(rho);
  return p;
}

}  // namespace

int main() {
  bench_util::banner(
      "Figure 3 (DATE'05 Datta et al.)",
      "Modeling error vs (a) number of stages and (b) correlation;\n"
      "reference: 400k-sample stage-level Monte-Carlo");

  // ---- (a) error vs number of stages (uncorrelated, equal stages).
  std::printf("\n(a) error vs number of stages (rho = 0)\n");
  bench_util::row({"stages", "mean_err%", "sigma_err%"});
  bench_util::csv_begin("fig3a", "stages,mean_err_pct,sigma_err_pct");
  for (std::size_t n : {2, 4, 6, 8, 12, 16, 20, 25, 30}) {
    const auto e = compare(equal_stage_pipeline(n, 0.0),
                           sp::stats::ClarkOrdering::kIncreasingMean, 10 + n);
    std::printf("%zu,%.4f,%.4f\n", n, e.mean_pct, e.sigma_pct);
  }
  bench_util::csv_end();

  // ---- (b) error vs correlation coefficient (5 stages).
  std::printf("\n(b) error vs correlation coefficient (5 stages)\n");
  bench_util::csv_begin("fig3b", "rho,mean_err_pct,sigma_err_pct");
  for (double rho : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8}) {
    const auto e =
        compare(equal_stage_pipeline(5, rho),
                sp::stats::ClarkOrdering::kIncreasingMean,
                static_cast<std::uint64_t>(100 + rho * 100));
    std::printf("%.1f,%.4f,%.4f\n", rho, e.mean_pct, e.sigma_pct);
  }
  bench_util::csv_end();

  // ---- ordering ablation (heterogeneous means, where ordering matters).
  std::printf("\nOrdering ablation (8 heterogeneous stages, rho = 0.3)\n");
  // Deliberately NOT in increasing-mean order, so ordering policy matters.
  const double means[] = {102.0, 90.0, 118.0, 96.0, 110.0, 94.0, 114.0, 106.0};
  std::vector<StageModel> s;
  for (int i = 0; i < 8; ++i)
    s.emplace_back("s" + std::to_string(i),
                   Gaussian{means[i], 4.0 + 0.5 * (i % 3)}, 0.0, 0.0);
  PipelineModel p(std::move(s), {});
  p.set_uniform_correlation(0.3);
  bench_util::row({"ordering", "mean_err%", "sigma_err%"}, 18);
  const struct {
    const char* name;
    sp::stats::ClarkOrdering ord;
  } orders[] = {
      {"increasing-mean", sp::stats::ClarkOrdering::kIncreasingMean},
      {"decreasing-mean", sp::stats::ClarkOrdering::kDecreasingMean},
      {"document-order", sp::stats::ClarkOrdering::kAsGiven},
  };
  for (const auto& o : orders) {
    const auto e = compare(p, o.ord, 777);
    bench_util::row({o.name, bench_util::fmt(e.mean_pct, 4),
                     bench_util::fmt(e.sigma_pct, 4)},
                    18);
  }

  std::printf(
      "\nExpected shape (paper): both errors grow with stage count and with\n"
      "correlation; sigma error dominates mean error; increasing-mean\n"
      "ordering's sigma error is no worse than document order's (the mean\n"
      "errors are too close to the MC noise to rank the orders).\n");
  return 0;
}
