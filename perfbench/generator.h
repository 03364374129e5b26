// Seeded workload generator for the DISC pipeline benchmark: Gaussian
// clusters with a strided slice of rows corrupted by an error model,
// rendered as CSV text plus ground-truth cluster labels. The program under
// test only ever sees the CSV text.

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How corrupted rows are displaced. Every `stride`-th row (starting at
/// stride/2) is corrupted on k attributes, each shifted by ±magnitude.
/// k and the first attribute's magnitude are stratified over the corrupted
/// rows (each row gets its own 1/N slice of the distribution, in seeded
/// order), so the error mix — and with it the quality metrics — varies
/// little from seed to seed; further magnitudes and the attributes are
/// plain draws.
struct ErrorModel {
  enum class Kind {
    /// k uniform in [k_min, k_max] distinct random attributes; magnitude
    /// uniform in [shift_min, shift_max].
    kUniformShift,
    /// k ∈ {1, 2, 3} with P(k) ∝ 1/k², attributes (base + 2j) mod m;
    /// magnitude = spike_offset + lognormal(spike_mu, spike_sigma).
    kLognormalSpike,
  };
  Kind kind = Kind::kUniformShift;
  std::size_t stride = 20;
  std::size_t k_min = 1;
  std::size_t k_max = 1;
  double shift_min = 0;
  double shift_max = 0;
  double spike_offset = 0;
  double spike_mu = 0;
  double spike_sigma = 0;
};

/// Shape of one generated dataset.
struct DataSpec {
  std::size_t clusters = 1;
  std::size_t cluster_size = 1;
  std::size_t dims = 1;
  double sigma = 1;
  /// Cluster centres are drawn uniformly from [0, centre_range]^dims with
  /// pairwise distance at least `min_separation`, from a fixed seed rather
  /// than the run seed: seeds vary the samples and the errors, not the
  /// cluster layout that sets the workload's character.
  double centre_range = 1;
  double min_separation = 0;
  ErrorModel errors;
};

struct GeneratedData {
  /// Header row "a0,...,a{m-1}", then one row per tuple, four decimals.
  std::string csv;
  /// Ground-truth cluster of every row (corrupted rows keep their cluster).
  std::vector<int> labels;
  /// Rows the error model displaced, ascending.
  std::vector<std::size_t> corrupted_rows;
};

/// Same (spec, seed) → identical bytes, on any machine with IEEE doubles.
GeneratedData Generate(const DataSpec& spec, std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
