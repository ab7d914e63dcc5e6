// Percentile rules of the benchmark.
//
// A timing is reported as its median and as a high percentile: the
// 99th when the sample supports it, otherwise the highest percentile
// that still has at least ten samples beyond it. A tail read from fewer
// samples than that is a single outlier, not a percentile.

#pragma once

#include <cstddef>
#include <vector>

namespace questbench {

/// Samples that must lie strictly above a reported tail value.
inline constexpr std::size_t k_tail_margin = 10;

/// Index (into the ascending sample) of the reported high percentile:
/// the nearest-rank `target` quantile, lowered until k_tail_margin
/// samples lie beyond it. Requires n > k_tail_margin.
std::size_t tail_index(std::size_t n, double target = 0.99);

/// Nearest-rank quantile `q` in [0, 1] of an ascending sample.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median and supported tail of one sample.
struct Summary {
  std::size_t samples = 0;
  double p50 = 0.0;
  /// The value at tail_index (0 when the sample is too small).
  double tail = 0.0;
  /// The percentile `tail` stands for, e.g. 99.0 or 97.3.
  double tail_percentile = 0.0;
};

/// Sorts a copy and summarizes it; an empty sample gives all zeros and a
/// sample of at most k_tail_margin values reports no tail.
Summary summarize(std::vector<double> values, double target = 0.99);

double median(std::vector<double> values);

/// Share of windows, counted from the best end, at which a windowed
/// end-to-end figure is read.
inline constexpr double k_quiet_share = 0.25;

/// The figure of the quiet windows: the k_quiet_share quantile of
/// per-window values counted from the best end (the lowest values, or the
/// highest when `higher_is_better`). On a shared machine other tenants
/// only ever add time, and they slow one vCPU at a time for seconds to
/// minutes, so the median window still moves with the neighbours while
/// the quiet windows track the program's own cost. A regression moves
/// every window, the quiet ones too.
double quiet(std::vector<double> windows, bool higher_is_better);

}  // namespace questbench
