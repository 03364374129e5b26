// The benchmark's own random source. Deliberately independent of the
// program's common/random.h and of <random>'s implementation-defined
// distributions: the workload bytes must depend on the seed alone, so no
// change to the program or the standard library can shift the inputs.

#ifndef PERFBENCH_RNG_H_
#define PERFBENCH_RNG_H_

#include <cmath>
#include <cstdint>

namespace perfbench {

/// xoshiro256** seeded through splitmix64, with hand-written uniform
/// and Gaussian (Box-Muller) draws.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (std::uint64_t& word : s_) word = SplitMix(&x);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1), 53 bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Multiply-shift; the bias is below 2^-40 for
  /// every n this benchmark uses.
  std::uint64_t Below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }

  bool Coin() { return (Next() >> 63) != 0; }

  /// Standard-normal draw scaled to N(mean, sigma²) by Box-Muller; the
  /// second variate of each pair is cached.
  double Gaussian(double mean, double sigma) {
    if (have_spare_) {
      have_spare_ = false;
      return mean + sigma * spare_;
    }
    double u1 = Uniform();
    while (u1 <= 0) u1 = Uniform();
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.14159265358979323846 * u2;
    spare_ = r * std::sin(theta);
    have_spare_ = true;
    return mean + sigma * r * std::cos(theta);
  }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static std::uint64_t SplitMix(std::uint64_t* x) {
    std::uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t s_[4];
  double spare_ = 0;
  bool have_spare_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_RNG_H_
