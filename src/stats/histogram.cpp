#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace statpipe::stats {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins == 0");
  // isfinite as well as the ordering check: hi > lo alone lets ±inf edges
  // through (hi = +inf satisfies it), after which every bin width is
  // inf/NaN and binning degenerates.
  if (!std::isfinite(lo) || !std::isfinite(hi))
    throw std::invalid_argument("Histogram: non-finite bounds");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: need hi > lo");
}

Histogram Histogram::from_samples(std::span<const double> xs, std::size_t bins) {
  if (xs.empty()) throw std::invalid_argument("Histogram::from_samples: empty");
  auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
  double lo = *mn, hi = *mx;
  const double pad = std::max((hi - lo) * 0.01, 1e-12);
  Histogram h(lo - pad, hi + pad, bins);
  h.add(xs);
  return h;
}

void Histogram::add(double x) {
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<long>((x - lo_) / w);
  idx = std::clamp<long>(idx, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

void Histogram::add(std::span<const double> xs) {
  for (double x : xs) add(x);
}

double Histogram::bin_width() const noexcept {
  return (hi_ - lo_) / static_cast<double>(counts_.size());
}

double Histogram::bin_center(std::size_t i) const {
  if (i >= counts_.size()) throw std::out_of_range("Histogram::bin_center");
  return lo_ + (static_cast<double>(i) + 0.5) * bin_width();
}

double Histogram::density(std::size_t i) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(i)) /
         (static_cast<double>(total_) * bin_width());
}

std::string Histogram::to_csv(const std::string& label) const {
  std::ostringstream os;
  os << "# histogram" << (label.empty() ? "" : " " + label) << "\n";
  os << "center,count,density\n";
  for (std::size_t i = 0; i < counts_.size(); ++i)
    os << bin_center(i) << "," << counts_[i] << "," << density(i) << "\n";
  return os.str();
}

}  // namespace statpipe::stats
