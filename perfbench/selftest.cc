// perfbench_selftest — checks the benchmark's own code: order statistics,
// the accounting identities and generator determinism. Exit 0 when every
// check passes; run.py runs it before every benchmark run.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "generator.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);  // unsorted input
  Expect(NearestRank(v, 50) == 10, "nearest-rank p50 of 1..20 is 10");
  Expect(NearestRank(v, 95) == 19, "nearest-rank p95 of 1..20 is 19");
  Expect(NearestRank(v, 100) == 20, "nearest-rank p100 is the maximum");
  Expect(NearestRank(v, 0) == 1, "nearest-rank p0 clamps to the minimum");
  Expect(NearestRank({7}, 95) == 7, "nearest-rank of one sample");
  Expect(NearestRank({}, 50) == 0, "nearest-rank of no samples is 0");
}

void TestMedianAndQuartiles() {
  Expect(Median({3, 1, 2}) == 2, "median of an odd count");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of an even count");
  Expect(Median({}) == 0, "median of no samples is 0");
  // Reference values from Python's statistics.quantiles(values, n=4).
  auto q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25),
         "quartiles of 1..10 match Python");
  q = Quartiles({1, 2, 3, 4, 5});
  Expect(Near(q[0], 1.5) && Near(q[1], 3.0) && Near(q[2], 4.5),
         "quartiles of 1..5 match Python");
  q = Quartiles({5.0, 1.0});
  Expect(Near(q[0], 0.0) && Near(q[1], 3.0) && Near(q[2], 6.0),
         "quartiles of two samples extrapolate like Python");
  q = Quartiles({0.31, 0.12, 0.77, 0.45, 0.29, 0.98, 0.5, 0.61, 0.05, 0.83,
                 0.4});
  Expect(Near(q[0], 0.29) && Near(q[1], 0.45) && Near(q[2], 0.77),
         "quartiles of unsorted samples match Python");
}

void TestAccounting() {
  SearchAccounting a;
  a.prop3 = 100;
  a.lb_scan_s = 1e-5;
  a.prop5 = 50;
  a.ub_scan_s = 2e-5;
  a.outliers = 10;
  a.fill_s = 1e-4;
  a.search_s = 0.004;
  Expect(Near(a.Predicted(), 0.003), "search identity prediction");
  Expect(Near(a.Residual(), 0.001), "search identity residual");
  Expect(Near(a.UnattributedShare(), 0.25), "search identity share");
  SearchAccounting empty;
  Expect(empty.UnattributedShare() == 0, "empty accounting has no share");

  // Pipeline identity: self times of a nested span tree add up to the
  // root's duration exactly, so Σ stage spans + root self = pipeline.
  SpanRecorder rec(7);
  const std::uint64_t root = rec.Begin("a/root");
  volatile double sink = 0;
  for (int i = 0; i < 3; ++i) {
    SpanRecorder::Scope s(rec, "b/stage");
    for (int j = 0; j < 20000; ++j) sink = sink + j;
    SpanRecorder::Scope inner(rec, "c/call");
    for (int j = 0; j < 20000; ++j) sink = sink + j;
  }
  rec.End(root);
  std::uint64_t self_sum = 0;
  for (const auto& [layer, t] : rec.ByLayer(root)) self_sum += t.self_ns;
  Expect(self_sum == rec.Find(root)->duration_ns(),
         "layer self times sum to the root span");
  std::uint64_t stages = 0;
  for (const BenchSpan& s : rec.spans()) {
    if (s.parent == root) stages += s.duration_ns();
  }
  Expect(stages + rec.SelfNs(*rec.Find(root)) ==
             rec.Find(root)->duration_ns(),
         "stage spans plus root self time equal the root");
  Expect(rec.ByLayer(root).at("c").spans == 3, "three nested call spans");
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void TestGenerator() {
  DataSpec spec;
  spec.clusters = 3;
  spec.cluster_size = 50;
  spec.dims = 4;
  spec.sigma = 1.0;
  spec.centre_range = 30;
  spec.min_separation = 8;
  spec.errors.kind = ErrorModel::Kind::kUniformShift;
  spec.errors.stride = 10;
  spec.errors.k_min = 1;
  spec.errors.k_max = 2;
  spec.errors.shift_min = 5;
  spec.errors.shift_max = 9;
  const GeneratedData a = Generate(spec, 42);
  const GeneratedData b = Generate(spec, 42);
  const GeneratedData c = Generate(spec, 43);
  Expect(a.csv == b.csv, "same seed gives identical CSV bytes");
  Expect(a.labels == b.labels && a.corrupted_rows == b.corrupted_rows,
         "same seed gives identical labels and corrupted rows");
  Expect(a.csv != c.csv, "another seed gives other CSV bytes");
  // Pinned: a change to the generator, its RNG or its number formatting
  // changes every workload's inputs and must update this value on purpose.
  Expect(Fnv1a(a.csv) == 0x07e5112d1a3a775fULL,
         "generator output matches its pinned fingerprint");
  Expect(a.labels.size() == 150 && a.corrupted_rows.size() == 15,
         "row and corrupted-row counts follow the spec");
  std::size_t lines = 0;
  for (char ch : a.csv) lines += ch == '\n';
  Expect(lines == 151, "one header line plus one line per row");

  spec.errors.kind = ErrorModel::Kind::kLognormalSpike;
  spec.errors.spike_offset = 12;
  spec.errors.spike_mu = 3;
  spec.errors.spike_sigma = 0.8;
  Expect(Generate(spec, 42).csv == Generate(spec, 42).csv,
         "lognormal error model is deterministic too");

  // One error-free cluster: each coordinate's sample variance is σ².
  DataSpec one;
  one.clusters = 1;
  one.cluster_size = 4000;
  one.dims = 3;
  one.sigma = 2.0;
  one.centre_range = 10;
  one.errors.stride = 0;
  const GeneratedData g = Generate(one, 7);
  std::vector<double> sum(3, 0), sum_sq(3, 0);
  const char* p = g.csv.c_str() + g.csv.find('\n') + 1;
  while (*p != '\0') {
    for (std::size_t d = 0; d < 3; ++d) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      sum[d] += v;
      sum_sq[d] += v * v;
      p = end + 1;  // past the separator or the newline
    }
  }
  bool variance_ok = g.corrupted_rows.empty();
  for (std::size_t d = 0; d < 3; ++d) {
    const double mean = sum[d] / 4000;
    const double var = sum_sq[d] / 4000 - mean * mean;
    variance_ok = variance_ok && std::abs(var - 4.0) < 0.4;
  }
  Expect(variance_ok,
         "an error-free cluster has per-coordinate variance sigma^2");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentiles();
  perfbench::TestMedianAndQuartiles();
  perfbench::TestAccounting();
  perfbench::TestGenerator();
  if (perfbench::failures > 0) {
    std::printf("perfbench selftest: %d failure(s)\n", perfbench::failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
