// Host-speed probe of the statbench runner (README.md, "Timing rule").
//
// A fixed kernel in the shape of the optimizer's inner work: Clark's max of
// two Gaussians (erfc, exp, sqrt) folded over a random DAG of 20k nodes
// held in L2.  It calls nothing in statpipe and is built as its own
// translation unit, so a change to the library cannot change its speed;
// only the host can.  The runner times it between timed calls, and
// bench.py scales those times by the probe's nominal / measured time.
#include "host_probe.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace statbench {

namespace {

struct Dag {
  std::vector<int> a, b;
  std::vector<double> mu, sigma;

  explicit Dag(int n) : a(n), b(n), mu(n), sigma(n) {
    std::uint64_t s = 7;
    auto next = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<int>(s >> 33);
    };
    for (int i = 1; i < n; ++i) {
      a[i] = next() % i;
      b[i] = next() % i;
    }
  }
};

}  // namespace

double host_probe() {
  static Dag dag(20000);
  const int n = static_cast<int>(dag.mu.size());
  double out = 0.0;
  for (int pass = 0; pass < 6; ++pass) {
    dag.mu[0] = 1.0;
    dag.sigma[0] = 0.1;
    for (int i = 1; i < n; ++i) {
      const double m1 = dag.mu[dag.a[i]], m2 = dag.mu[dag.b[i]];
      const double s1 = dag.sigma[dag.a[i]], s2 = dag.sigma[dag.b[i]];
      const double theta = std::sqrt(s1 * s1 + s2 * s2 + 1e-9);
      const double alpha = (m1 - m2) / theta;
      const double cdf = 0.5 * std::erfc(-alpha / std::sqrt(2.0));
      const double pdf = 0.3989422804014327 * std::exp(-0.5 * alpha * alpha);
      const double mean = m1 * cdf + m2 * (1.0 - cdf) + theta * pdf + 0.01;
      const double var = (m1 * m1 + s1 * s1) * cdf +
                         (m2 * m2 + s2 * s2) * (1.0 - cdf) +
                         (m1 + m2) * theta * pdf - mean * mean;
      dag.mu[i] = mean;
      dag.sigma[i] = 0.99 * std::sqrt(std::max(var, 1e-12)) + 0.001;
    }
    out += dag.mu[n - 1];
  }
  return out;
}

}  // namespace statbench
