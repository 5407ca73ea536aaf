// Exact order statistics over the benchmark's raw samples. Percentiles are
// never read from the service's fixed-bucket histograms, whose p95/p99 are
// interpolation artifacts.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace hqbench {

/// \brief Sorted copy of a sample set with exact quantile lookups.
class Distribution {
 public:
  Distribution() = default;
  explicit Distribution(std::vector<double> samples)
      : sorted_(std::move(samples)) {
    std::sort(sorted_.begin(), sorted_.end());
  }

  size_t count() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }

  /// Nearest-rank quantile, q in [0, 1]; 0 when there are no samples.
  double Quantile(double q) const {
    if (sorted_.empty()) return 0.0;
    size_t rank = static_cast<size_t>(std::ceil(q * sorted_.size()));
    if (rank > 0) --rank;
    return sorted_[std::min(rank, sorted_.size() - 1)];
  }
  double Median() const { return Quantile(0.5); }

  double Mean() const {
    if (sorted_.empty()) return 0.0;
    double sum = 0;
    for (double v : sorted_) sum += v;
    return sum / sorted_.size();
  }

  /// Samples strictly above the `q` quantile's rank.
  size_t Beyond(double q) const {
    if (sorted_.empty()) return 0;
    size_t rank = static_cast<size_t>(std::ceil(q * sorted_.size()));
    return sorted_.size() - std::min(rank, sorted_.size());
  }

 private:
  std::vector<double> sorted_;
};

}  // namespace hqbench
