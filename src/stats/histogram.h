// Fixed-bin histogram for reproducing the paper's delay-distribution plots
// (Fig. 2, Fig. 7(a)) as printable series.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace statpipe::stats {

class Histogram {
 public:
  /// Bins the half-open range [lo, hi) into `bins` equal cells; samples
  /// outside the range are clamped into the first/last bin so mass is
  /// never silently dropped.
  Histogram(double lo, double hi, std::size_t bins);

  /// Convenience: range = [min, max] of the sample padded by 1%.
  static Histogram from_samples(std::span<const double> xs, std::size_t bins);

  void add(double x);
  void add(std::span<const double> xs);

  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t total() const noexcept { return total_; }
  double lo() const noexcept { return lo_; }
  double hi() const noexcept { return hi_; }
  double bin_width() const noexcept;
  double bin_center(std::size_t i) const;
  std::size_t count(std::size_t i) const { return counts_.at(i); }

  /// Density estimate at bin i: count / (total * bin_width); integrates to 1.
  double density(std::size_t i) const;

  /// "center,count,density" CSV rows — what the benches print so the
  /// figures can be re-plotted with any tool.
  std::string to_csv(const std::string& label = "") const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace statpipe::stats
