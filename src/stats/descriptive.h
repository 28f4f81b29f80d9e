// Descriptive statistics over Monte-Carlo sample vectors: the mergeable
// Welford accumulator (RunningStats) every MC engine folds dies into, and
// the one-shot sample summaries (mean, variance, quantile, empirical CDF,
// Pearson correlation, binomial standard error) that the characterization,
// verification benches and tests compute from stored samples.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace statpipe::stats {

/// Single-pass running mean/variance accumulator (Welford's algorithm).
/// Numerically stable for the millions of MC samples the benches produce.
class RunningStats {
 public:
  /// Exact internal state, exposed so accumulators can cross process
  /// boundaries (dist/serialize) without losing a bit: a RunningStats
  /// rebuilt via from_state(state()) is indistinguishable from the
  /// original — same mean/variance/min/max down to the last ulp.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  State state() const noexcept { return {n_, mean_, m2_, min_, max_}; }
  /// Rebuilds an accumulator from a state snapshot.  The state is
  /// VALIDATED, not trusted: snapshots arrive off the distributed wire
  /// (dist/serialize), so a hostile or corrupt peer can put arbitrary bit
  /// patterns in every field.  Throws std::invalid_argument on anything no
  /// add()/merge() sequence can produce — non-finite mean/m2/min/max,
  /// negative m2, min > max, or n == 0 with nonzero moments — instead of
  /// letting NaN/inf poison every later fold.
  static RunningStats from_state(const State& s);

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  ///< unbiased (n-1)
double stddev(std::span<const double> xs);

/// Empirical quantile with linear interpolation (type-7, the numpy default).
/// Requires 0 <= q <= 1 and a non-empty sample.  Sorts a copy.
double quantile(std::span<const double> xs, double q);

/// Fraction of samples <= threshold — the Monte-Carlo yield estimator
/// corresponding to eq. (2) of the paper.
double empirical_cdf_at(std::span<const double> xs, double threshold);

/// Pearson correlation coefficient of two equally-sized samples.
double pearson(std::span<const double> xs, std::span<const double> ys);

/// Standard error of a binomial proportion estimate (for yield CIs).
double proportion_stderr(double p, std::size_t n);

}  // namespace statpipe::stats
