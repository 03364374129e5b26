// bench_distance_kernels — the columnar tier vs the scalar distance path.
//
// Three sections, on all-numeric Gaussian-mixture data (n >= 50k, m >= 8 in
// the full run):
//   1. Range-query throughput: the columnar all-rows scan
//      (FlatKernel::CollectWithin / CountWithin over a ColumnarView) vs the
//      scalar reference BruteForceIndex, after asserting both return
//      bit-identical neighbor sets.
//   2. SIMD tier sweep: the columnar range scan re-timed with the view
//      forced to each tier the CPU can run (scalar / avx2), rows/s each,
//      after asserting every tier's answers match the scalar tier bit for
//      bit (DESIGN.md §12).
//   3. End-to-end SaveAll and the SaveOutliers pipeline, columnar tier vs
//      scalar tier, after asserting bit-identical outputs. The scalar side
//      runs an evaluator of PlainAbsoluteDifference metrics, which the
//      columnar tier does not serve, so its index, kNN cache and search
//      caches all take the scalar reference.
//
// Every run also executes the cross-tier parity suite — every FlatKernel
// entry point on random, wide and edge-value (NaN / ±inf / denormal /
// negative-zero) relations, every runnable tier against the scalar tier —
// and fails hard on any mismatch: bit-identity is the kernels' contract,
// not a perf property.
//
// Flags: --quick shrinks every workload for the CI perf-smoke job; --check
// additionally exits 1 when the columnar range scan is not at least as
// fast as the scalar reference on the all-numeric range workload, or when
// the AVX2 tier does not clear kSimdSpeedupFloor over the scalar tier (the
// regression gates).
//
// Results are printed as tables and written to BENCH_distance_kernels.json.
//
// Not a paper figure: this benchmarks the repo's own distance architecture.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "distance/attribute_metric.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "support.h"

namespace disc::bench {
namespace {

struct KernelConfig {
  bool quick = false;
  bool check = false;
  std::size_t n = 50000;        // rows in the range-query relation
  std::size_t m = 8;            // attributes
  std::size_t range_queries = 400;  // range queries per path
  double save_scale = 0.008;    // Flight dataset scale for the SaveAll pass
};

/// |a − b| without claiming IsScaledAbsoluteDifference: the unit metric's
/// arithmetic, so an evaluator built from it gives identical answers on the
/// scalar reference tier.
class PlainAbsoluteDifference : public AttributeMetric {
 public:
  double Distance(const Value& a, const Value& b) const override {
    return std::fabs(a.num() - b.num());
  }
};

/// The default evaluator of `schema` with every numeric metric replaced by
/// PlainAbsoluteDifference.
DistanceEvaluator ScalarTierEvaluator(const Schema& schema) {
  std::vector<std::unique_ptr<AttributeMetric>> metrics;
  for (std::size_t a = 0; a < schema.arity(); ++a) {
    if (schema.kind(a) == ValueKind::kNumeric) {
      metrics.push_back(std::make_unique<PlainAbsoluteDifference>());
    } else {
      metrics.push_back(DefaultMetricFor(schema.kind(a)));
    }
  }
  return DistanceEvaluator(schema, std::move(metrics));
}

Relation MakeNumericWorkload(std::size_t n, std::size_t m,
                             std::uint64_t seed) {
  std::vector<std::vector<double>> centers =
      PlaceClusterCenters(8, m, 100.0, 20.0, seed);
  std::vector<ClusterSpec> specs;
  for (const auto& center : centers) {
    specs.push_back({center, 1.5, n / centers.size()});
  }
  return GenerateGaussianMixture(specs, seed + 1).data;
}

Tuple RandomQueryNear(const Relation& r, Rng* rng) {
  // Perturb a random row so queries land where data lives (realistic
  // range-query selectivity instead of empty answers).
  const Tuple& base = r[rng->NextIndex(r.size())];
  Tuple q = base;
  for (std::size_t a = 0; a < q.size(); ++a) {
    q[a] = Value(q[a].num() + rng->Uniform(-2.0, 2.0));
  }
  return q;
}

struct RangeTimings {
  double scalar_qps = 0;
  double columnar_qps = 0;
  double scalar_count_qps = 0;
  double columnar_count_qps = 0;
  double speedup = 0;
  double count_speedup = 0;
  bool identical = true;
};

/// Scalar-reference hits of one ε-visit, in ascending row order (the order
/// FlatKernel::CollectWithin reports).
struct Hits {
  std::vector<std::size_t> rows;
  std::vector<double> dists;
};

Hits ScalarHits(const BruteForceIndex& index, const Tuple& query,
                double eps) {
  Hits hits;
  index.ForEachWithin(query, eps, [&hits](std::size_t row, double d) {
    hits.rows.push_back(row);
    hits.dists.push_back(d);
  });
  return hits;
}

/// The all-rows ε-scan: the columnar batch kernels over a ColumnarView vs
/// the scalar reference BruteForceIndex, for collected hits and for counts.
RangeTimings BenchRange(const Relation& r, const DistanceEvaluator& ev,
                        const ColumnarView& view, const KernelConfig& cfg) {
  RangeTimings t;
  // Selective radius: DISC range queries probe an ε-ball, not a cluster
  // dump, so most rows take the early-exit reject path.
  const double eps = 2.5;
  BruteForceIndex scalar(r, ev);

  Rng rng(21);
  std::vector<Tuple> queries;
  queries.reserve(cfg.range_queries);
  for (std::size_t i = 0; i < cfg.range_queries; ++i) {
    queries.push_back(RandomQueryNear(r, &rng));
  }

  // Bit-identity spot check before timing anything.
  for (std::size_t i = 0; i < queries.size(); i += 16) {
    const Hits want = ScalarHits(scalar, queries[i], eps);
    Hits got;
    FlatKernel(view, queries[i]).CollectWithin(eps, &got.rows, &got.dists);
    if (got.rows != want.rows || got.dists != want.dists) t.identical = false;
  }

  std::size_t total = 0;
  {
    Timer timer;
    for (const Tuple& q : queries) {
      total += ScalarHits(scalar, q, eps).rows.size();
    }
    t.scalar_qps = static_cast<double>(cfg.range_queries) / timer.Seconds();
  }
  {
    Timer timer;
    for (const Tuple& q : queries) {
      Hits hits;
      FlatKernel(view, q).CollectWithin(eps, &hits.rows, &hits.dists);
      total += hits.rows.size();
    }
    t.columnar_qps = static_cast<double>(cfg.range_queries) / timer.Seconds();
  }
  {
    Timer timer;
    for (const Tuple& q : queries) total += scalar.CountWithin(q, eps);
    t.scalar_count_qps =
        static_cast<double>(cfg.range_queries) / timer.Seconds();
  }
  {
    Timer timer;
    for (const Tuple& q : queries) {
      total += FlatKernel(view, q).CountWithin(eps);
    }
    t.columnar_count_qps =
        static_cast<double>(cfg.range_queries) / timer.Seconds();
  }
  if (total == 0) std::fprintf(stderr, "warning: empty range answers\n");
  t.speedup = t.columnar_qps / t.scalar_qps;
  t.count_speedup = t.columnar_count_qps / t.scalar_count_qps;
  return t;
}

/// Floor the AVX2 tier must clear over the scalar-tier columnar range scan
/// under --check. The measured margin is well above this (see
/// bench/baselines/BENCH_distance_kernels.json); the floor only catches a
/// tier that silently stopped vectorizing.
constexpr double kSimdSpeedupFloor = 2.5;

/// The tiers this CPU can execute, scalar first (set_simd_tier clamps, so
/// on lesser hardware the sweep simply measures fewer rows).
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (DetectedSimdTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

struct TierTimings {
  struct Entry {
    SimdTier tier = SimdTier::kScalar;
    double rows_per_s = 0;
    double speedup = 1.0;  // vs the scalar tier
  };
  std::vector<Entry> entries;
  SimdTier active = SimdTier::kScalar;
  bool identical = true;
};

/// Timing windows per tier in the sweep, and the length of each. Each tier
/// reports its best window, and the tiers take their windows in turn, so a
/// slow stretch of the host costs every tier a window instead of costing
/// one tier its whole measurement.
constexpr int kTierWindows = 9;
constexpr double kTierWindowSeconds = 0.04;

/// Columnar range-scan throughput per SIMD tier: the same CountWithin scan
/// over the full view, re-dispatched per tier, after asserting the tier's
/// CollectWithin answers match the scalar tier bit for bit.
TierTimings BenchTiers(const Relation& r, ColumnarView* view) {
  TierTimings t;
  t.active = view->simd_tier();
  const double eps = 2.5;
  Rng rng(33);
  std::vector<Tuple> queries;
  for (std::size_t i = 0; i < 8; ++i) {
    queries.push_back(RandomQueryNear(r, &rng));
  }

  view->set_simd_tier(SimdTier::kScalar);
  std::vector<std::vector<std::size_t>> ref_rows(queries.size());
  std::vector<std::vector<double>> ref_dists(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    FlatKernel kernel(*view, queries[i]);
    kernel.CollectWithin(eps, &ref_rows[i], &ref_dists[i]);
  }

  const std::vector<SimdTier> tiers = RunnableTiers();
  for (SimdTier tier : tiers) {
    view->set_simd_tier(tier);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      FlatKernel kernel(*view, queries[i]);
      std::vector<std::size_t> rows;
      std::vector<double> dists;
      kernel.CollectWithin(eps, &rows, &dists);
      if (rows != ref_rows[i] || dists != ref_dists[i]) t.identical = false;
    }
  }

  std::vector<double> best(tiers.size(), 0.0);
  std::size_t kept = 0;
  for (int window = 0; window < kTierWindows; ++window) {
    for (std::size_t k = 0; k < tiers.size(); ++k) {
      view->set_simd_tier(tiers[k]);
      std::size_t passes = 0;
      Timer timer;
      do {
        for (const Tuple& q : queries) {
          kept += FlatKernel(*view, q).CountWithin(eps);
        }
        ++passes;
      } while (timer.Seconds() < kTierWindowSeconds);
      const double rows_per_s = static_cast<double>(passes * queries.size()) *
                                static_cast<double>(view->rows()) /
                                timer.Seconds();
      best[k] = std::max(best[k], rows_per_s);
    }
  }
  if (kept == 0) std::fprintf(stderr, "warning: empty tier-scan answers\n");
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    TierTimings::Entry e;
    e.tier = tiers[k];
    e.rows_per_s = best[k];
    e.speedup = best[k] / best[0];  // tiers[0] is the scalar tier
    t.entries.push_back(e);
  }
  view->set_simd_tier(t.active);
  return t;
}

/// NaN payloads aside, "the same double" for parity purposes: bitwise-equal
/// finite/inf values, or NaN on both sides (distances only ever produce +0,
/// so ±0 aliasing cannot hide a sign bug).
bool SameVal(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) || a == b;
}

/// Relation of the edge values the vector scan must not mishandle: NaN
/// (all comparisons false — must neither reject a row nor revive one), ±inf
/// (overflow; inf−inf = NaN against infinite queries), ±huge (squares
/// overflow), denormals, negative zero.
Relation EdgeRelation(std::size_t dims) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  Relation r(Schema::Numeric(dims));
  std::vector<std::vector<double>> rows = {
      std::vector<double>(dims, 0.0),  std::vector<double>(dims, -0.0),
      std::vector<double>(dims, huge), std::vector<double>(dims, -huge),
      std::vector<double>(dims, tiny), std::vector<double>(dims, 1.0),
      std::vector<double>(dims, inf),  std::vector<double>(dims, -inf),
      std::vector<double>(dims, nan),
  };
  rows.push_back(std::vector<double>(dims, 0.0));
  rows.back()[0] = nan;
  rows.push_back(std::vector<double>(dims, 0.25));
  rows.back()[dims - 1] = inf;
  rows.push_back(std::vector<double>(dims, 0.5));
  rows.back()[0] = -inf;
  for (const auto& coords : rows) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) t[d] = Value(coords[d]);
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

/// Every FlatKernel entry point on every runnable tier vs the scalar tier.
bool ParityOn(const Relation& r, const DistanceEvaluator& ev,
              const char* label) {
  auto view = ColumnarView::Build(r, ev);
  if (view == nullptr) {
    std::fprintf(stderr, "parity[%s]: workload ineligible\n", label);
    return false;
  }
  const std::size_t n = r.size();
  const std::size_t m = r.arity();

  Rng rng(5);
  std::vector<Tuple> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(RandomQueryNear(r, &rng));
  queries.push_back(r[0]);        // includes NaN/inf queries on EdgeRelation
  queries.push_back(r[n - 1]);

  bool ok = true;
  const auto mismatch = [&](const char* what, SimdTier tier) {
    std::fprintf(stderr, "parity[%s]: %s mismatch on tier %s\n", label, what,
                 SimdTierName(tier));
    ok = false;
  };
  for (const Tuple& q : queries) {
    for (double eps : {0.0, 2.5, 1e301}) {
      // Materialize every scalar reference value BEFORE switching tiers:
      // FlatKernel dispatches on the view's current tier at call time, so a
      // "reference" call made after set_simd_tier would compare a tier to
      // itself.
      view->set_simd_tier(SimdTier::kScalar);
      FlatKernel ref(*view, q);
      std::vector<std::size_t> ref_rows;
      std::vector<double> ref_dists;
      ref.CollectWithin(eps, &ref_rows, &ref_dists);
      const std::size_t ref_count = ref.CountWithin(eps);
      std::vector<double> ref_fill(n);
      ref.FillDistances(ref_fill.data(), 0, n);
      std::vector<double> ref_attr(n);
      ref.FillAttributeDistances(m / 2, ref_attr.data());

      for (SimdTier tier : RunnableTiers()) {
        view->set_simd_tier(tier);
        FlatKernel kernel(*view, q);
        std::vector<std::size_t> rows;
        std::vector<double> dists;
        kernel.CollectWithin(eps, &rows, &dists);
        if (rows != ref_rows || dists != ref_dists) {
          mismatch("CollectWithin", tier);
        }
        if (kernel.CountWithin(eps) != ref_count) {
          mismatch("CountWithin", tier);
        }
        std::vector<double> fill(n);
        kernel.FillDistances(fill.data(), 0, n);
        std::vector<double> attr(n);
        kernel.FillAttributeDistances(m / 2, attr.data());
        for (std::size_t row = 0; row < n; ++row) {
          if (!SameVal(fill[row], ref_fill[row])) {
            mismatch("FillDistances", tier);
          }
          if (!SameVal(attr[row], ref_attr[row])) {
            mismatch("FillAttributeDistances", tier);
          }
        }
        if (!ok) return false;  // first mismatch is enough detail
      }
    }
  }
  return ok;
}

/// The cross-tier parity suite: random / wide / edge-value relations under
/// every norm.
bool CheckParity() {
  bool ok = true;
  Relation random = MakeNumericWorkload(257, 6, 3);
  {
    // Break the lane alignment so the masked-tail paths run too (the
    // mixture generator emits a multiple of its 8 clusters).
    Rng rng(6);
    for (int i = 0; i < 3; ++i) {
      Tuple t(6);
      for (std::size_t d = 0; d < 6; ++d) t[d] = Value(rng.Uniform(-10, 10));
      random.AppendUnchecked(std::move(t));
    }
  }
  Relation wide = MakeNumericWorkload(64, 24, 4);
  Relation edge = EdgeRelation(9);
  for (LpNorm norm : {LpNorm::kL2, LpNorm::kL1, LpNorm::kLInf}) {
    ok &= ParityOn(random, DistanceEvaluator(random.schema(), norm), "random");
    ok &= ParityOn(wide, DistanceEvaluator(wide.schema(), norm), "wide");
    ok &= ParityOn(edge, DistanceEvaluator(edge.schema(), norm), "edge");
  }
  return ok;
}

struct SaveTimings {
  double scalar_seconds = 0;
  double fast_seconds = 0;
  double speedup = 0;
  bool identical = true;
  std::size_t outliers = 0;
  std::size_t saved = 0;
  SearchStats stats;  // aggregate work of the fast-path batch
};

bool SameSaveResults(const std::vector<SaveResult>& a,
                     const std::vector<SaveResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].feasible != b[i].feasible || a[i].adjusted != b[i].adjusted ||
        a[i].cost != b[i].cost || a[i].termination != b[i].termination ||
        !(a[i].adjusted_attributes == b[i].adjusted_attributes)) {
      return false;
    }
  }
  return true;
}

/// DiscSaver::SaveAll on a corrupted Gaussian mixture — the branch-and-bound
/// hot loop, on the columnar tier (kd-tree, columnar search caches) vs the
/// scalar tier (brute-force index, scalar search caches), without the
/// detection/split phase (which uses the kd-tree in both configurations
/// and would dilute the comparison). Single-threaded so the speedup is the
/// kernels', not the pool's.
SaveTimings BenchSaveAll(const KernelConfig& cfg) {
  SaveTimings t;
  const std::size_t dims = 6;
  const std::size_t per_cluster = cfg.quick ? 220 : 700;
  std::vector<std::vector<double>> centers =
      PlaceClusterCenters(5, dims, 60.0, 18.0, 7);
  std::vector<ClusterSpec> specs;
  for (const auto& center : centers) specs.push_back({center, 0.8, per_cluster});
  LabeledRelation mixture = GenerateGaussianMixture(specs, 8);
  Rng rng(9);
  for (std::size_t row = 4; row < mixture.data.size(); row += 9) {
    std::size_t a = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(dims) - 1));
    mixture.data[row][a] =
        Value(mixture.data[row][a].num() + 25.0 + rng.Uniform() * 10.0);
  }
  const DistanceConstraint constraint{2.0, 6};

  DistanceEvaluator ev(mixture.data.schema());
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(mixture.data, ev, constraint.epsilon);
  InlierOutlierSplit split =
      SplitInliersOutliers(mixture.data, *index, constraint);
  Relation inliers = mixture.data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) {
    outliers.push_back(mixture.data[row]);
  }
  t.outliers = outliers.size();

  SaveOptions save_options;
  save_options.kappa = 2;
  const DistanceEvaluator scalar_ev = ScalarTierEvaluator(inliers.schema());
  DiscSaver fast_saver(inliers, ev, constraint);
  DiscSaver scalar_saver(inliers, scalar_ev, constraint);

  Timer t1;
  std::vector<SaveResult> scalar = scalar_saver.SaveAll(outliers, save_options);
  t.scalar_seconds = t1.Seconds();

  Timer t2;
  std::vector<SaveResult> fast = fast_saver.SaveAll(outliers, save_options);
  t.fast_seconds = t2.Seconds();

  t.speedup = t.scalar_seconds / t.fast_seconds;
  t.identical = SameSaveResults(scalar, fast);
  for (const SaveResult& r : fast) {
    if (r.feasible) ++t.saved;
    t.stats.MergeFrom(r.stats);
  }
  return t;
}

struct PipelineTimings {
  double scalar_seconds = 0;
  double fast_seconds = 0;
  double speedup = 0;
  bool identical = true;
  std::size_t outliers = 0;
};

/// Whole SaveOutliers pipeline (detect + save) on the Flight-shaped paper
/// workload, columnar tier vs scalar tier — the user-visible end-to-end
/// number.
PipelineTimings BenchPipeline(const KernelConfig& cfg) {
  PipelineTimings t;
  PaperDataset ds = MakePaperDataset("flight", 42, cfg.save_scale);
  DistanceEvaluator ev(ds.dirty.schema());
  const DistanceEvaluator scalar_ev = ScalarTierEvaluator(ds.dirty.schema());

  OutlierSavingOptions options;
  options.constraint = ds.suggested;

  Timer t1;
  SavedDataset scalar = SaveOutliers(ds.dirty, scalar_ev, options);
  t.scalar_seconds = t1.Seconds();

  Timer t2;
  SavedDataset fast = SaveOutliers(ds.dirty, ev, options);
  t.fast_seconds = t2.Seconds();

  t.outliers = fast.outlier_rows.size();
  t.speedup = t.scalar_seconds / t.fast_seconds;

  if (fast.repaired.size() != scalar.repaired.size()) {
    t.identical = false;
  } else {
    for (std::size_t i = 0; i < fast.repaired.size(); ++i) {
      if (!(fast.repaired[i] == scalar.repaired[i])) {
        t.identical = false;
        break;
      }
    }
  }
  return t;
}

int Run(const KernelConfig& cfg) {
  Relation workload = MakeNumericWorkload(cfg.n, cfg.m, 99);
  DistanceEvaluator ev(workload.schema());
  auto view = ColumnarView::Build(workload, ev);
  if (view == nullptr) {
    std::fprintf(stderr, "workload unexpectedly ineligible for columnar\n");
    return 1;
  }

  PrintHeader("Distance kernels: scalar vs columnar (n=" +
              std::to_string(workload.size()) + ", m=" + std::to_string(cfg.m) +
              ")");

  RangeTimings range = BenchRange(workload, ev, *view, cfg);
  PrintRow({"metric", "scalar", "columnar", "speedup"}, 14);
  PrintRow({"range q/s", Fmt(range.scalar_qps, 1), Fmt(range.columnar_qps, 1),
            Fmt(range.speedup, 2)},
           14);
  PrintRow({"count q/s", Fmt(range.scalar_count_qps, 1),
            Fmt(range.columnar_count_qps, 1), Fmt(range.count_speedup, 2)},
           14);
  std::printf("range results bit-identical: %s\n",
              range.identical ? "yes" : "NO");

  TierTimings tiers = BenchTiers(workload, view.get());
  PrintHeader("SIMD tier sweep: columnar range scan (active tier " +
              std::string(SimdTierName(tiers.active)) + ")");
  PrintRow({"tier", "rows/s", "speedup"}, 14);
  for (const TierTimings::Entry& e : tiers.entries) {
    PrintRow({SimdTierName(e.tier), Fmt(e.rows_per_s, 0), Fmt(e.speedup, 2)},
             14);
  }
  std::printf("tier answers bit-identical: %s\n",
              tiers.identical ? "yes" : "NO");

  const bool parity = CheckParity();
  std::printf("cross-tier parity suite (all entry points, edge values): %s\n",
              parity ? "pass" : "FAIL");

  SaveTimings save = BenchSaveAll(cfg);
  PrintHeader("DiscSaver::SaveAll (Gaussian mixture, " +
              std::to_string(save.outliers) + " outliers, " +
              std::to_string(save.saved) + " saved)");
  PrintRow({"path", "seconds", "speedup"}, 14);
  PrintRow({"scalar", Fmt(save.scalar_seconds, 3), "1.00"}, 14);
  PrintRow({"columnar", Fmt(save.fast_seconds, 3), Fmt(save.speedup, 2)}, 14);
  std::printf("save results bit-identical: %s\n",
              save.identical ? "yes" : "NO");

  PipelineTimings pipeline = BenchPipeline(cfg);
  PrintHeader("SaveOutliers pipeline (Flight-shaped, " +
              std::to_string(pipeline.outliers) + " outliers)");
  PrintRow({"path", "seconds", "speedup"}, 14);
  PrintRow({"scalar", Fmt(pipeline.scalar_seconds, 3), "1.00"}, 14);
  PrintRow({"columnar", Fmt(pipeline.fast_seconds, 3),
            Fmt(pipeline.speedup, 2)},
           14);
  std::printf("repaired outputs bit-identical: %s\n",
              pipeline.identical ? "yes" : "NO");

  // The active tier's rows/s is the artifact's headline throughput (what
  // check_bench_regression.py gates, hardware shape permitting).
  double active_rows_per_s = 0;
  for (const TierTimings::Entry& e : tiers.entries) {
    if (e.tier == tiers.active) active_rows_per_s = e.rows_per_s;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Uint(5);
  json.Key("bench").String("distance_kernels");
  json.Key("quick").Bool(cfg.quick);
  json.Key("n").Uint(workload.size());
  json.Key("m").Uint(cfg.m);
  json.Key("hardware_threads").Uint(WorkStealingPool::DefaultThreadCount());
  json.Key("throughput_per_s").Number(active_rows_per_s);
  json.Key("simd");
  json.BeginObject();
  json.Key("active_tier").String(SimdTierName(tiers.active));
  json.Key("detected_tier").String(SimdTierName(DetectedSimdTier()));
  json.Key("bit_identical").Bool(tiers.identical);
  json.Key("parity").Bool(parity);
  json.Key("tiers").BeginArray();
  for (const TierTimings::Entry& e : tiers.entries) {
    json.BeginObject();
    json.Key("tier").String(SimdTierName(e.tier));
    json.Key("rows_per_s").Number(e.rows_per_s);
    json.Key("speedup").Number(e.speedup);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("range");
  json.BeginObject();
  json.Key("epsilon").Number(2.5);
  json.Key("queries").Uint(cfg.range_queries);
  json.Key("scalar_qps").Number(range.scalar_qps);
  json.Key("columnar_qps").Number(range.columnar_qps);
  json.Key("scalar_count_qps").Number(range.scalar_count_qps);
  json.Key("columnar_count_qps").Number(range.columnar_count_qps);
  json.Key("speedup").Number(range.speedup);
  json.Key("count_speedup").Number(range.count_speedup);
  json.Key("bit_identical").Bool(range.identical);
  json.EndObject();
  json.Key("save_all");
  json.BeginObject();
  json.Key("dataset").String("gaussian_mixture");
  json.Key("outliers").Uint(save.outliers);
  json.Key("saved").Uint(save.saved);
  json.Key("scalar_seconds").Number(save.scalar_seconds);
  json.Key("fast_seconds").Number(save.fast_seconds);
  json.Key("speedup").Number(save.speedup);
  json.Key("bit_identical").Bool(save.identical);
  json.Key("search_stats").BeginObject();
  AppendSearchStats(&json, save.stats);
  json.EndObject();
  json.EndObject();
  json.Key("pipeline");
  json.BeginObject();
  json.Key("dataset").String("flight");
  json.Key("scale").Number(cfg.save_scale);
  json.Key("outliers").Uint(pipeline.outliers);
  json.Key("scalar_seconds").Number(pipeline.scalar_seconds);
  json.Key("fast_seconds").Number(pipeline.fast_seconds);
  json.Key("speedup").Number(pipeline.speedup);
  json.Key("bit_identical").Bool(pipeline.identical);
  json.EndObject();
  json.EndObject();
  const std::string json_path = BenchOutPath("BENCH_distance_kernels.json");
  WriteTextFile(json_path, json.str());
  std::printf("wrote %s\n", json_path.c_str());

  if (!range.identical || !save.identical || !pipeline.identical ||
      !tiers.identical) {
    std::fprintf(stderr, "FAIL: columnar tier is not bit-identical\n");
    return 1;
  }
  if (!parity) {
    std::fprintf(stderr, "FAIL: cross-tier parity suite\n");
    return 1;
  }
  if (cfg.check && range.speedup < 1.0) {
    std::fprintf(stderr,
                 "FAIL: columnar range scan slower than scalar (%.2fx)\n",
                 range.speedup);
    return 1;
  }
  if (cfg.check && DetectedSimdTier() >= SimdTier::kAvx2) {
    double avx2_speedup = 0;
    for (const TierTimings::Entry& e : tiers.entries) {
      if (e.tier == SimdTier::kAvx2) avx2_speedup = e.speedup;
    }
    if (avx2_speedup < kSimdSpeedupFloor) {
      std::fprintf(stderr,
                   "FAIL: avx2 tier below %.1fx over the scalar-tier "
                   "columnar scan (%.2fx)\n",
                   kSimdSpeedupFloor, avx2_speedup);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace disc::bench

int main(int argc, char** argv) {
  disc::bench::KernelConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.quick = true;
      cfg.n = 8000;
      cfg.range_queries = 60;
      cfg.save_scale = 0.003;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      cfg.check = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--check]\n", argv[0]);
      return 2;
    }
  }
  return disc::bench::Run(cfg);
}
