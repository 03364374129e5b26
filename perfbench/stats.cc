#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double NearestRank(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t ld = values.size();
  if (ld == 1) return {values[0], values[0], values[0]};
  std::array<double, 3> q{};
  const std::size_t m = ld + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (values[j - 1] * (4 - delta) + values[j] * delta) / 4;
  }
  return q;
}

double SearchAccounting::Predicted() const {
  return static_cast<double>(prop3) * lb_scan_s +
         static_cast<double>(prop5) * ub_scan_s +
         static_cast<double>(outliers) * fill_s;
}

double SearchAccounting::Residual() const { return search_s - Predicted(); }

double SearchAccounting::UnattributedShare() const {
  return search_s > 0 ? Residual() / search_s : 0;
}

}  // namespace perfbench
