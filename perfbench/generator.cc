#include "generator.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "rng.h"

namespace perfbench {
namespace {

std::vector<std::vector<double>> PlaceCentres(const DataSpec& spec,
                                              BenchRng& rng) {
  std::vector<std::vector<double>> centres;
  const double min_sq = spec.min_separation * spec.min_separation;
  // Rejection sampling; the separations in use are far below the typical
  // spacing, so a few attempts per centre suffice.
  for (int attempt = 0;
       centres.size() < spec.clusters && attempt < 100000; ++attempt) {
    std::vector<double> c(spec.dims);
    for (double& v : c) v = rng.Uniform(0, spec.centre_range);
    bool far = true;
    for (const auto& other : centres) {
      double sq = 0;
      for (std::size_t d = 0; d < spec.dims; ++d) {
        sq += (c[d] - other[d]) * (c[d] - other[d]);
      }
      if (sq < min_sq) {
        far = false;
        break;
      }
    }
    if (far) centres.push_back(std::move(c));
  }
  // Unreachable for the shipped specs; keeps the contract total anyway.
  while (centres.size() < spec.clusters) {
    std::vector<double> c(spec.dims);
    for (double& v : c) v = rng.Uniform(0, spec.centre_range);
    centres.push_back(std::move(c));
  }
  return centres;
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error below 1.2e-9), for stratified lognormal magnitudes.
double NormalQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00, 2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  p = std::clamp(p, 1e-12, 1 - 1e-12);
  const double low = 0.02425;
  if (p < low) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - low) return -NormalQuantile(1 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

/// CDF of the chi distribution with k degrees of freedom — the radius of a
/// k-dimensional standard normal — as the regularized lower incomplete
/// gamma P(k/2, r²/2), by its power series.
double ChiCdf(std::size_t k, double r) {
  const double a = static_cast<double>(k) / 2.0;
  const double x = r * r / 2.0;
  if (x <= 0) return 0;
  double term = 1.0 / a;
  double sum = term;
  for (int n = 1; n < 1000 && term > sum * 1e-17; ++n) {
    term *= x / (a + n);
    sum += term;
  }
  return std::min(1.0, std::exp(a * std::log(x) - x - std::lgamma(a)) * sum);
}

/// Inverse chi CDF by table lookup and linear interpolation.
class ChiQuantile {
 public:
  explicit ChiQuantile(std::size_t k) : cdf_(kSteps + 1) {
    for (std::size_t i = 0; i <= kSteps; ++i) cdf_[i] = ChiCdf(k, i * kStep);
  }
  double operator()(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.begin()) return 0;
    if (it == cdf_.end()) return kSteps * kStep;
    const std::size_t i = static_cast<std::size_t>(it - cdf_.begin());
    const double lo = cdf_[i - 1];
    const double hi = cdf_[i];
    const double t = hi > lo ? (u - lo) / (hi - lo) : 0;
    return (static_cast<double>(i - 1) + t) * kStep;
  }

 private:
  static constexpr std::size_t kSteps = 8192;
  static constexpr double kStep = 12.0 / kSteps;
  std::vector<double> cdf_;
};

/// u ∈ [0,1) → k ∈ {1, 2, 3} with P(k) ∝ 1/k².
std::size_t SpikeCount(double u) {
  const double total = 1.0 + 0.25 + 1.0 / 9.0;
  if (u < 1.0 / total) return 1;
  if (u < 1.25 / total) return 2;
  return 3;
}

/// N stratified uniforms: slice i of [0,1) for i = 0..N-1, jittered within
/// the slice and handed out in a seeded random order.
std::vector<double> Stratified(std::size_t n, BenchRng& rng) {
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = (static_cast<double>(i) + rng.Uniform()) / static_cast<double>(n);
  }
  for (std::size_t i = n; i > 1; --i) std::swap(u[i - 1], u[rng.Below(i)]);
  return u;
}

/// Displaces `row` with stratified draws `u_k` (attribute count) and `u_m`
/// (first magnitude).
void Corrupt(const ErrorModel& model, double u_k, double u_m,
             std::vector<double>& row, BenchRng& rng) {
  const std::size_t m = row.size();
  if (model.kind == ErrorModel::Kind::kUniformShift) {
    const std::size_t span = model.k_max - model.k_min + 1;
    const std::size_t k =
        model.k_min + std::min(span - 1, static_cast<std::size_t>(
                                             u_k * static_cast<double>(span)));
    std::vector<bool> used(m, false);
    for (std::size_t j = 0; j < k && j < m; ++j) {
      std::size_t a = rng.Below(m);
      while (used[a]) a = (a + 1) % m;
      used[a] = true;
      const double u = j == 0 ? u_m : rng.Uniform();
      const double magnitude =
          model.shift_min + (model.shift_max - model.shift_min) * u;
      row[a] += rng.Coin() ? magnitude : -magnitude;
    }
    return;
  }
  const std::size_t k = SpikeCount(u_k);
  const std::size_t base = rng.Below(m);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t a = (base + 2 * j) % m;
    const double z = j == 0 ? NormalQuantile(u_m) : rng.Gaussian(0, 1);
    const double magnitude =
        model.spike_offset + std::exp(model.spike_mu + model.spike_sigma * z);
    row[a] += rng.Coin() ? magnitude : -magnitude;
  }
}

void AppendFixed4(std::string& out, double v) {
  char buf[64];
  auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 4);
  (void)ec;  // 64 bytes hold any fixed-4 rendering of the generated range
  out.append(buf, end);
}

}  // namespace

GeneratedData Generate(const DataSpec& spec, std::uint64_t seed) {
  // Independent streams for layout, samples and errors, so changing one
  // parameter (say the error model) leaves the other draws untouched.
  BenchRng layout_rng(0x1004);  // fixed, not the run seed: see DataSpec
  BenchRng sample_rng(seed * 3 + 0x2002);
  BenchRng error_rng(seed * 3 + 0x3003);

  const auto centres = PlaceCentres(spec, layout_rng);
  const ChiQuantile chi(spec.dims);
  const std::size_t n = spec.clusters * spec.cluster_size;
  const std::size_t stride = spec.errors.stride;
  const std::size_t corrupted =
      stride == 0 || n <= stride / 2 ? 0 : (n - stride / 2 - 1) / stride + 1;
  const std::vector<double> u_k = Stratified(corrupted, error_rng);
  const std::vector<double> u_m = Stratified(corrupted, error_rng);

  GeneratedData out;
  out.labels.reserve(n);
  out.csv.reserve(n * spec.dims * 10 + 64);
  for (std::size_t d = 0; d < spec.dims; ++d) {
    if (d > 0) out.csv += ',';
    out.csv += 'a';
    out.csv += std::to_string(d);
  }
  out.csv += '\n';

  std::vector<double> row(spec.dims);
  std::vector<double> direction(spec.dims);
  std::size_t r = 0;
  for (std::size_t c = 0; c < spec.clusters; ++c) {
    // Isotropic Gaussian cluster as radius × direction, with the radii
    // stratified: the count of far-out (natural outlier) samples then
    // varies little from seed to seed.
    const std::vector<double> u_r = Stratified(spec.cluster_size, sample_rng);
    for (std::size_t i = 0; i < spec.cluster_size; ++i, ++r) {
      double norm_sq = 0;
      for (double& v : direction) {
        v = sample_rng.Gaussian(0, 1);
        norm_sq += v * v;
      }
      const double scale =
          norm_sq > 0 ? spec.sigma * chi(u_r[i]) / std::sqrt(norm_sq) : 0;
      for (std::size_t d = 0; d < spec.dims; ++d) {
        row[d] = centres[c][d] + scale * direction[d];
      }
      const std::size_t j = out.corrupted_rows.size();
      if (stride > 0 && r % stride == stride / 2 && j < corrupted) {
        Corrupt(spec.errors, u_k[j], u_m[j], row, error_rng);
        out.corrupted_rows.push_back(r);
      }
      for (std::size_t d = 0; d < spec.dims; ++d) {
        if (d > 0) out.csv += ',';
        AppendFixed4(out.csv, row[d]);
      }
      out.csv += '\n';
      out.labels.push_back(static_cast<int>(c));
    }
  }
  return out;
}

}  // namespace perfbench
