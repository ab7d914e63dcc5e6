#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace questbench {

std::size_t tail_index(std::size_t n, double target) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(target * static_cast<double>(n)));
  const std::size_t nearest = rank == 0 ? 0 : rank - 1;
  return std::min(nearest, n - 1 - k_tail_margin);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : std::min(rank - 1, sorted.size() - 1)];
}

Summary summarize(std::vector<double> values, double target) {
  Summary summary;
  summary.samples = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = quantile_sorted(values, 0.5);
  if (values.size() > k_tail_margin) {
    const std::size_t index = tail_index(values.size(), target);
    summary.tail = values[index];
    summary.tail_percentile = 100.0 * static_cast<double>(index + 1) /
                              static_cast<double>(values.size());
  }
  return summary;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double quiet(std::vector<double> windows, bool higher_is_better) {
  std::sort(windows.begin(), windows.end());
  return quantile_sorted(windows, higher_is_better ? 1.0 - k_quiet_share
                                                   : k_quiet_share);
}

}  // namespace questbench
