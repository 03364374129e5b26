// Microbenchmarks (google-benchmark) of the core primitives plus the
// ablation knobs DESIGN.md calls out:
//  - neighbor-index range query: KD-tree vs the scalar brute-force reference
//  - delta_eta precompute (KthNeighborCache)
//  - a single DISC save: pruning on vs off, kappa-restricted vs full
//  - bound computations in isolation, all-rows over a cache and inherited
//    over the kd-tree

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "support.h"

#include "common/json_writer.h"
#include "common/random.h"
#include "core/disc_saver.h"
#include "index/brute_force_index.h"
#include "index/kd_tree.h"
#include "index/kth_neighbor_cache.h"

namespace disc {
namespace {

Relation MakeInliers(std::size_t n, std::size_t m, std::uint64_t seed = 5) {
  Rng rng(seed);
  Relation r(Schema::Numeric(m));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(m);
    for (std::size_t a = 0; a < m; ++a) t[a] = Value(rng.Gaussian(0, 1.0));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

void BM_KdTreeRangeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Relation r = MakeInliers(n, 4);
  KdTree tree(r);
  Tuple query = Tuple::Numeric({0.1, 0.1, -0.1, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.RangeQuery(query, 1.0));
  }
}
BENCHMARK(BM_KdTreeRangeQuery)->Arg(1000)->Arg(10000);

/// The scalar reference (BruteForceIndex over DistanceEvaluator) on the
/// same data: the cost the kd-tree's pruning and columnar leaves avoid.
void BM_ScalarReferenceRangeQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Relation r = MakeInliers(n, 4);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex index(r, ev);
  Tuple query = Tuple::Numeric({0.1, 0.1, -0.1, 0.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.RangeQuery(query, 1.0));
  }
}
BENCHMARK(BM_ScalarReferenceRangeQuery)->Arg(1000)->Arg(10000);

void BM_KthNeighborCacheBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Relation r = MakeInliers(n, 4);
  KdTree tree(r);
  for (auto _ : state) {
    KthNeighborCache cache(r, tree, 8);
    benchmark::DoNotOptimize(cache.deltas().size());
  }
}
BENCHMARK(BM_KthNeighborCacheBuild)->Arg(500)->Arg(2000);

void BM_DiscSave(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const bool prune = state.range(1) != 0;
  Relation r = MakeInliers(400, m);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {1.5, 5});
  Tuple outlier(m);
  for (std::size_t a = 0; a < m; ++a) outlier[a] = Value(0.1);
  outlier[m - 1] = Value(20.0);  // one broken attribute
  SaveOptions opts;
  opts.use_lower_bound_pruning = prune;
  std::size_t visited = 0;
  for (auto _ : state) {
    SaveResult res = saver.Save(outlier, opts);
    visited = res.stats.visited_sets;
    benchmark::DoNotOptimize(res.cost);
  }
  state.counters["visited_sets"] = static_cast<double>(visited);
}
BENCHMARK(BM_DiscSave)
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0});

void BM_DiscSaveKappa(benchmark::State& state) {
  const auto kappa = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 12;
  Relation r = MakeInliers(400, m);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {2.0, 5});
  Tuple outlier(m);
  for (std::size_t a = 0; a < m; ++a) outlier[a] = Value(0.1);
  outlier[0] = Value(20.0);
  SaveOptions opts;
  opts.kappa = kappa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(saver.Save(outlier, opts).cost);
  }
}
BENCHMARK(BM_DiscSaveKappa)->Arg(1)->Arg(2)->Arg(3)->Arg(0);

// The bound benches time one all-rows bound over a per-search distance
// cache built outside the timed loop, as a search builds it once per
// outlier; without it every call would also time a cache fill.
void BM_BoundsLowerBound(benchmark::State& state) {
  Relation r = MakeInliers(2000, 6);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {1.5, 6});
  Tuple outlier = Tuple::Numeric({0.1, 0.1, 0.1, 0.1, 0.1, 15.0});
  AttributeSet x{0, 1, 2};
  const SearchDistanceCache dcache(r, ev, outlier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        saver.bounds().LowerBoundForX(outlier, x, nullptr, &dcache));
  }
}
BENCHMARK(BM_BoundsLowerBound);

void BM_BoundsUpperBound(benchmark::State& state) {
  Relation r = MakeInliers(2000, 6);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {1.5, 6});
  Tuple outlier = Tuple::Numeric({0.1, 0.1, 0.1, 0.1, 0.1, 15.0});
  AttributeSet x{0, 1, 2};
  const SearchDistanceCache dcache(r, ev, outlier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        saver.bounds().UpperBoundForX(outlier, x, nullptr, &dcache));
  }
}
BENCHMARK(BM_BoundsUpperBound);

/// The bound scans a search runs on an eligible relation: one tree-form
/// BandPass for X = {0, 1, 2, 3} over the band of its canonical parent
/// {0, 1, 2} (so each row resumes the parent's accumulator), plus the
/// DonorSplice over the result, on a g8-shaped relation (8 attributes,
/// 2,400 rows, ε = 4). `per_parent_row` is the time per row of the parent
/// band.
void BM_InheritedBandPass(benchmark::State& state) {
  Relation r = MakeInliers(2400, 8);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {4.0, 6});
  Tuple outlier =
      Tuple::Numeric({0.2, -0.3, 0.1, 0.4, -0.2, 0.3, 0.1, 9.0});
  const BoundsEngine& bounds = saver.bounds();
  const KdTree* tree = bounds.TreeFor(outlier);
  if (tree == nullptr) {
    state.SkipWithError("the kd-tree does not serve this relation");
    return;
  }
  const BandSource source(*tree, outlier);
  const AttributeSet x{0, 1, 2, 3};
  BoundsEngine::Band parent;
  BoundsEngine::Band band;
  bounds.BandPass(source, AttributeSet{0, 1, 2}, nullptr, false, &parent);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bounds.BandPass(source, x, &parent, true, &band));
    benchmark::DoNotOptimize(bounds.DonorSplice(outlier, x, source, band));
  }
  state.counters["parent_rows"] = static_cast<double>(parent.rows.size());
  state.counters["per_parent_row"] = benchmark::Counter(
      static_cast<double>(parent.rows.size()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_InheritedBandPass);

/// Writes BENCH_micro_core.json: the search-work counters of one
/// representative kappa-restricted DISC save (the BM_DiscSave workload),
/// so the CI perf-smoke job can sanity-check the counter plumbing from a
/// binary that does not link bench_support. Deterministic by construction
/// (fixed seeds, single thread); wall_nanos is the only timing field.
bool WriteMicroCoreJson(const std::string& path) {
  const std::size_t m = 8;
  Relation r = MakeInliers(400, m);
  DistanceEvaluator ev(r.schema());
  DiscSaver saver(r, ev, {1.5, 5});
  Tuple outlier(m);
  for (std::size_t a = 0; a < m; ++a) outlier[a] = Value(0.1);
  outlier[m - 1] = Value(20.0);
  SaveOptions opts;
  opts.kappa = 2;
  SaveResult res = saver.Save(outlier, opts);

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Uint(2);
  json.Key("bench").String("micro_core");
  json.Key("inliers").Uint(r.size());
  json.Key("m").Uint(m);
  json.Key("kappa").Uint(opts.kappa);
  json.Key("feasible").Bool(res.feasible);
  json.Key("search_stats").BeginObject();
  res.stats.AppendJson(&json);
  json.EndObject();
  json.EndObject();

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string text = json.str() + "\n";
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && written == text.size();
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string json_path =
      disc::bench::BenchOutPath("BENCH_micro_core.json");
  if (!disc::WriteMicroCoreJson(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
