// Order statistics and the layer-accounting identities the benchmark
// reports. Small and dependency-free so perfbench_selftest can pin them.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank ⌈p·n/100⌉, clamped to [1, n]). 0 for none.
double NearestRank(std::vector<double> values, double p);

/// Middle sample, or the mean of the two middle samples. 0 for none.
double Median(std::vector<double> values);

/// First, second and third quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), so quartiles read the same here as in
/// any script that re-derives them. Needs at least one sample.
std::array<double, 3> Quartiles(std::vector<double> values);

/// The search-time identity of the saver layer:
///   search_s ≈ prop3 × lb_scan_s + prop5 × ub_scan_s + outliers × fill_s
/// with per-call costs from the seeded bound-call sample and counts from
/// the per-search stats.
struct SearchAccounting {
  std::uint64_t prop3 = 0;
  double lb_scan_s = 0;
  std::uint64_t prop5 = 0;
  double ub_scan_s = 0;
  std::uint64_t outliers = 0;
  double fill_s = 0;
  double search_s = 0;

  double Predicted() const;
  /// search_s − Predicted(): time the identity does not explain.
  double Residual() const;
  /// Residual() / search_s (0 when search_s is 0).
  double UnattributedShare() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
