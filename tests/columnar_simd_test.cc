// Tier-parity suite for the SIMD distance kernels (DESIGN.md §12): every
// entry point of FlatKernel, on every dispatch tier the machine can run,
// must produce outputs bit-identical to the scalar reference — across lane
// tails (n % block ≠ 0), sub-lane inputs (n < one block), the narrowest and
// widest schemas, non-unit scales, NaN/±inf/denormal columns, and pooled
// chunked scans. Also covers the dispatch-resolution rules of
// common/cpu_features.h and the 64-byte column-alignment invariant.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "distance/columnar.h"
#include "distance/columnar_simd.h"
#include "distance/evaluator.h"
#include "distance/lp_norm.h"
#include "index/brute_force_index.h"
#include "index/kd_tree.h"

namespace disc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The tiers this machine can actually execute, scalar first. Forcing a
/// tier above DetectedSimdTier() clamps, so parity runs degenerate to
/// scalar-vs-scalar on lesser hardware instead of faulting — the suite is
/// meaningful everywhere and exhaustive on AVX2 machines.
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (DetectedSimdTier() >= SimdTier::kSse2) tiers.push_back(SimdTier::kSse2);
  if (DetectedSimdTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

Relation RandomNumericRelation(std::size_t n, std::size_t dims,
                               std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) t[d] = Value(rng.Uniform(-10, 10));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

Tuple RandomQuery(std::size_t dims, Rng* rng) {
  Tuple q(dims);
  for (std::size_t d = 0; d < dims; ++d) q[d] = Value(rng->Uniform(-12, 12));
  return q;
}

/// Edge values the vector kernels must not mishandle: NaN (never rejected
/// by a comparison, must survive to the canonical recompute), ±infinity
/// (overflowing squares, inf−inf = NaN when the query is infinite too),
/// huge magnitudes, denormals, negative zero.
Relation EdgeCaseRelation(std::size_t dims) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  Relation r(Schema::Numeric(dims));
  std::vector<std::vector<double>> rows = {
      std::vector<double>(dims, 0.0),   std::vector<double>(dims, -0.0),
      std::vector<double>(dims, huge),  std::vector<double>(dims, -huge),
      std::vector<double>(dims, tiny),  std::vector<double>(dims, 1.0),
      std::vector<double>(dims, -1.0),  std::vector<double>(dims, kInf),
      std::vector<double>(dims, -kInf),
  };
  rows.push_back(std::vector<double>(dims, 0.0));
  rows.back()[0] = nan;
  rows.push_back(std::vector<double>(dims, nan));
  rows.push_back(std::vector<double>(dims, 0.25));
  rows.back()[dims - 1] = kInf;  // infinity in the last attribute only
  rows.push_back(std::vector<double>(dims, 0.5));
  rows.back()[0] = -kInf;
  for (const auto& coords : rows) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) t[d] = Value(coords[d]);
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

DistanceEvaluator ScaledEvaluator(const Schema& schema, LpNorm norm) {
  std::vector<std::unique_ptr<AttributeMetric>> metrics;
  for (std::size_t a = 0; a < schema.arity(); ++a) {
    metrics.push_back(std::make_unique<AbsoluteDifferenceMetric>(
        1.0 + 0.25 * static_cast<double>(a)));
  }
  return DistanceEvaluator(schema, std::move(metrics), norm);
}

/// Scalar-reference results for one (view, query, epsilon) triple.
struct ScanResult {
  std::vector<std::size_t> rows;
  std::vector<double> dists;
  std::size_t count = 0;
};

ScanResult ScanOn(const ColumnarView& view, const Tuple& query, double eps) {
  FlatKernel kernel(view, query);
  ScanResult result;
  kernel.CollectWithin(eps, &result.rows, &result.dists);
  result.count = kernel.CountWithin(eps);
  return result;
}

// ---------------------------------------------------------------------------
// Dispatch resolution (pure rules, no hardware dependence)
// ---------------------------------------------------------------------------

TEST(CpuFeaturesTest, ParseSimdTier) {
  EXPECT_EQ(ParseSimdTier("off"), SimdTier::kScalar);
  EXPECT_EQ(ParseSimdTier("OFF"), SimdTier::kScalar);
  EXPECT_EQ(ParseSimdTier("scalar"), SimdTier::kScalar);
  EXPECT_EQ(ParseSimdTier("sse2"), SimdTier::kSse2);
  EXPECT_EQ(ParseSimdTier("SSE2"), SimdTier::kSse2);
  EXPECT_EQ(ParseSimdTier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(ParseSimdTier("AVX2"), SimdTier::kAvx2);
  EXPECT_FALSE(ParseSimdTier("avx512").has_value());
  EXPECT_FALSE(ParseSimdTier("").has_value());
  EXPECT_FALSE(ParseSimdTier("auto").has_value());
}

TEST(CpuFeaturesTest, ResolveClampsToDetected) {
  // No override: detected wins.
  EXPECT_EQ(ResolveSimdTier(nullptr, SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("", SimdTier::kSse2), SimdTier::kSse2);
  EXPECT_EQ(ResolveSimdTier("auto", SimdTier::kScalar), SimdTier::kScalar);
  // Narrowing overrides apply.
  EXPECT_EQ(ResolveSimdTier("off", SimdTier::kAvx2), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("sse2", SimdTier::kAvx2), SimdTier::kSse2);
  // Widening past the CPU clamps down — never SIGILL.
  EXPECT_EQ(ResolveSimdTier("avx2", SimdTier::kSse2), SimdTier::kSse2);
  EXPECT_EQ(ResolveSimdTier("avx2", SimdTier::kScalar), SimdTier::kScalar);
  // Unknown values mean auto (with a warning).
  EXPECT_EQ(ResolveSimdTier("avx512", SimdTier::kSse2), SimdTier::kSse2);
}

TEST(CpuFeaturesTest, TierNamesRoundTrip) {
  for (SimdTier tier :
       {SimdTier::kScalar, SimdTier::kSse2, SimdTier::kAvx2}) {
    EXPECT_EQ(ParseSimdTier(SimdTierName(tier)), tier);
  }
  EXPECT_LE(ActiveSimdTier(), DetectedSimdTier());
}

// ---------------------------------------------------------------------------
// Layout invariants
// ---------------------------------------------------------------------------

TEST(ColumnarLayoutTest, ColumnsAre64ByteAlignedAndLanePadded) {
  static_assert(ColumnarView::kLanePad * sizeof(double) == kColumnAlignBytes);
  for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 100u}) {
    Relation r = RandomNumericRelation(n, 5, 17 + n);
    DistanceEvaluator ev(r.schema());
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->padded_rows() % ColumnarView::kLanePad, 0u);
    EXPECT_GE(view->padded_rows(), view->rows());
    EXPECT_LT(view->padded_rows(), view->rows() + ColumnarView::kLanePad);
    for (std::size_t a = 0; a < view->arity(); ++a) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(view->column(a)) %
                    kColumnAlignBytes,
                0u)
          << "column " << a << " misaligned at n=" << n;
    }
  }
}

TEST(ColumnarLayoutTest, SetSimdTierClampsToDetected) {
  Relation r = RandomNumericRelation(16, 3, 5);
  DistanceEvaluator ev(r.schema());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->simd_tier(), ActiveSimdTier());
  view->set_simd_tier(SimdTier::kAvx2);
  EXPECT_EQ(view->simd_tier(), std::min(SimdTier::kAvx2, DetectedSimdTier()));
  view->set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(view->simd_tier(), SimdTier::kScalar);
}

// ---------------------------------------------------------------------------
// Tier parity: every entry point, every shape
// ---------------------------------------------------------------------------

class SimdNormTest : public testing::TestWithParam<LpNorm> {};

/// The core sweep: for each (n, m, scaled) shape, pin the view to scalar to
/// record the reference, then re-run every kernel entry point under each
/// runnable vector tier and demand bit-identical results. Shapes straddle
/// the block widths (n % 4, n % 2, n < one block) and the gather floor
/// (m < 16 vs m ≥ 16, up to the kCapacity-wide 64).
TEST_P(SimdNormTest, AllEntryPointsMatchScalarBitForBit) {
  const LpNorm norm = GetParam();
  struct Shape {
    std::size_t n;
    std::size_t m;
  };
  const Shape shapes[] = {{1, 1},  {3, 5},   {7, 5},  {8, 5},  {9, 5},
                          {31, 5}, {100, 5}, {50, 1}, {40, 24}, {20, 64},
                          {257, 6}};
  Rng rng(23);
  for (const Shape& shape : shapes) {
    Relation r = RandomNumericRelation(shape.n, shape.m, 31 + shape.n);
    for (bool scaled : {false, true}) {
      DistanceEvaluator ev = scaled ? ScaledEvaluator(r.schema(), norm)
                                    : DistanceEvaluator(r.schema(), norm);
      auto view = ColumnarView::Build(r, ev);
      ASSERT_NE(view, nullptr);
      for (int qi = 0; qi < 3; ++qi) {
        Tuple query = RandomQuery(shape.m, &rng);
        const double eps = rng.Uniform(0.5, 6.0);
        const AttributeSet subset = [&] {
          AttributeSet x;
          for (std::size_t a = 0; a < shape.m; ++a) {
            if (rng.Uniform() < 0.7) x.insert(a);
          }
          return x;
        }();

        // Materialize every scalar reference value BEFORE switching tiers:
        // FlatKernel dispatches on the view's current tier at call time, so
        // reference calls made after set_simd_tier would compare a tier to
        // itself.
        view->set_simd_tier(SimdTier::kScalar);
        const ScanResult ref = ScanOn(*view, query, eps);
        FlatKernel ref_kernel(*view, query);
        std::vector<double> ref_fill(shape.n);
        ref_kernel.FillDistances(ref_fill.data(), 0, shape.n);
        std::vector<double> ref_attr(shape.n);
        ref_kernel.FillAttributeDistances(shape.m / 2, ref_attr.data());
        const double thrs[4] = {0.0, eps * 0.5, eps, eps * 2};
        std::vector<double> ref_dist(shape.n), ref_on(shape.n);
        std::vector<std::array<double, 4>> ref_within(shape.n),
            ref_on_within(shape.n);
        for (std::size_t row = 0; row < shape.n; ++row) {
          ref_dist[row] = ref_kernel.Distance(row);
          ref_on[row] = ref_kernel.DistanceOn(subset, row);
          for (int ti = 0; ti < 4; ++ti) {
            ref_within[row][ti] = ref_kernel.DistanceWithin(row, thrs[ti]);
            ref_on_within[row][ti] =
                ref_kernel.DistanceOnWithin(subset, row, thrs[ti]);
          }
        }

        for (SimdTier tier : RunnableTiers()) {
          view->set_simd_tier(tier);
          SCOPED_TRACE(testing::Message()
                       << "tier=" << SimdTierName(tier) << " n=" << shape.n
                       << " m=" << shape.m << " scaled=" << scaled
                       << " eps=" << eps);
          const ScanResult got = ScanOn(*view, query, eps);
          EXPECT_EQ(got.rows, ref.rows);
          EXPECT_EQ(got.dists, ref.dists);
          EXPECT_EQ(got.count, ref.count);

          FlatKernel kernel(*view, query);
          std::vector<double> fill(shape.n);
          kernel.FillDistances(fill.data(), 0, shape.n);
          EXPECT_EQ(fill, ref_fill);
          // Split fills must agree with the whole-range fill (chunked
          // SearchDistanceCache path, arbitrary interior boundary).
          if (shape.n > 2) {
            const std::size_t cut = shape.n / 2 + 1;
            std::vector<double> split(shape.n);
            kernel.FillDistances(split.data(), 0, cut);
            kernel.FillDistances(split.data() + cut, cut, shape.n);
            EXPECT_EQ(split, ref_fill);
          }
          std::vector<double> attr(shape.n);
          kernel.FillAttributeDistances(shape.m / 2, attr.data());
          EXPECT_EQ(attr, ref_attr);

          for (std::size_t row = 0; row < shape.n; ++row) {
            EXPECT_EQ(kernel.Distance(row), ref_dist[row]);
            for (int ti = 0; ti < 4; ++ti) {
              EXPECT_EQ(kernel.DistanceWithin(row, thrs[ti]),
                        ref_within[row][ti])
                  << "row " << row << " thr " << thrs[ti];
              EXPECT_EQ(kernel.DistanceOnWithin(subset, row, thrs[ti]),
                        ref_on_within[row][ti])
                  << "row " << row << " thr " << thrs[ti];
            }
            EXPECT_EQ(kernel.DistanceOn(subset, row), ref_on[row]);
          }
        }
      }
    }
  }
}

/// Non-finite parity: the reject pre-pass must never dismiss NaN rows (NaN
/// comparisons are false), ±inf must overflow identically, denormals must
/// not flush. Queries include finite, infinite and NaN coordinates.
TEST_P(SimdNormTest, EdgeValuesMatchScalarBitForBit) {
  const LpNorm norm = GetParam();
  for (std::size_t dims : {2u, 5u, 24u}) {
    Relation r = EdgeCaseRelation(dims);
    DistanceEvaluator ev(r.schema(), norm);
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);

    std::vector<Tuple> queries;
    for (double v : {0.0, 1.5, kInf, -kInf}) {
      Tuple q(dims);
      for (std::size_t d = 0; d < dims; ++d) q[d] = Value(v);
      queries.push_back(std::move(q));
    }
    Tuple nan_query(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      nan_query[d] = Value(d == 0 ? std::numeric_limits<double>::quiet_NaN()
                                  : 1.0);
    }
    queries.push_back(std::move(nan_query));

    for (const Tuple& query : queries) {
      for (double eps : {0.0, 1.0, 1e300, kInf}) {
        // Scalar references materialized before any tier switch (FlatKernel
        // dispatches on the view's current tier at call time).
        view->set_simd_tier(SimdTier::kScalar);
        const ScanResult ref = ScanOn(*view, query, eps);
        FlatKernel ref_kernel(*view, query);
        std::vector<double> ref_fill(r.size());
        ref_kernel.FillDistances(ref_fill.data(), 0, r.size());
        std::vector<double> ref_within(r.size());
        for (std::size_t i = 0; i < r.size(); ++i) {
          ref_within[i] = ref_kernel.DistanceWithin(i, eps);
        }
        for (SimdTier tier : RunnableTiers()) {
          view->set_simd_tier(tier);
          SCOPED_TRACE(testing::Message() << "tier=" << SimdTierName(tier)
                                          << " dims=" << dims
                                          << " eps=" << eps);
          const ScanResult got = ScanOn(*view, query, eps);
          EXPECT_EQ(got.rows, ref.rows);
          // Accepted distances can be NaN-free only; still compare exactly.
          EXPECT_EQ(got.dists, ref.dists);
          EXPECT_EQ(got.count, ref.count);
          FlatKernel kernel(*view, query);
          std::vector<double> fill(r.size());
          kernel.FillDistances(fill.data(), 0, r.size());
          for (std::size_t i = 0; i < r.size(); ++i) {
            // EXPECT_EQ(NaN, NaN) fails; compare NaN-ness semantically.
            if (std::isnan(ref_fill[i])) {
              EXPECT_TRUE(std::isnan(fill[i])) << "row " << i;
            } else {
              EXPECT_EQ(fill[i], ref_fill[i]) << "row " << i;
            }
            double a = kernel.DistanceWithin(i, eps);
            if (std::isnan(ref_within[i])) {
              EXPECT_TRUE(std::isnan(a)) << "row " << i;
            } else {
              EXPECT_EQ(a, ref_within[i]) << "row " << i;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, SimdNormTest,
                         testing::Values(LpNorm::kL2, LpNorm::kL1,
                                         LpNorm::kLInf));

// ---------------------------------------------------------------------------
// Pooled scans: SIMD chunks, any thread count, same bits
// ---------------------------------------------------------------------------

TEST(SimdPooledScanTest, PooledCollectMatchesScalarSequentialExactly) {
  const std::size_t n = 40000;  // ≥ 2 × grain: the pools actually engage
  const std::size_t dims = 6;
  Relation r = RandomNumericRelation(n, dims, 97);
  DistanceEvaluator ev(r.schema());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);
  Rng rng(3);
  Tuple query = RandomQuery(dims, &rng);
  const double eps = 2.5;

  view->set_simd_tier(SimdTier::kScalar);
  const ScanResult ref = ScanOn(*view, query, eps);

  for (SimdTier tier : RunnableTiers()) {
    view->set_simd_tier(tier);
    FlatKernel kernel(*view, query);
    for (std::size_t threads : {1u, 4u, 8u}) {
      WorkStealingPool pool(threads);
      SCOPED_TRACE(testing::Message() << "tier=" << SimdTierName(tier)
                                      << " threads=" << threads);
      std::vector<std::size_t> rows;
      std::vector<double> dists;
      kernel.CollectWithin(eps, &rows, &dists, &pool);
      EXPECT_EQ(rows, ref.rows);
      EXPECT_EQ(dists, ref.dists);
      EXPECT_EQ(kernel.CountWithin(eps, &pool), ref.count);
    }
  }
}

// ---------------------------------------------------------------------------
// Wide-index end-to-end parity
// ---------------------------------------------------------------------------

TEST(SimdPointKernelTest, WideKdTreeMatchesBruteForceBitForBit) {
  // A wide tree: its leaves run the batch kernels on the active tier.
  const std::size_t dims = 12;
  Relation r = RandomNumericRelation(400, dims, 59);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev, /*enable_fast_path=*/false);
  KdTree tree(r);
  Rng rng(13);
  for (int qi = 0; qi < 10; ++qi) {
    Tuple query = RandomQuery(dims, &rng);
    for (double eps : {1.0, 5.0, 12.0}) {
      auto expected = brute.RangeQuery(query, eps);
      auto got = tree.RangeQuery(query, eps);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].row, expected[i].row);
        EXPECT_EQ(got[i].distance, expected[i].distance);
      }
      EXPECT_EQ(tree.CountWithin(query, eps), brute.CountWithin(query, eps));
    }
    auto knn_expected = brute.KNearest(query, 7);
    auto knn_got = tree.KNearest(query, 7);
    ASSERT_EQ(knn_got.size(), knn_expected.size());
    for (std::size_t i = 0; i < knn_got.size(); ++i) {
      EXPECT_EQ(knn_got[i].row, knn_expected[i].row);
      EXPECT_EQ(knn_got[i].distance, knn_expected[i].distance);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel work counters
// ---------------------------------------------------------------------------

TEST(SimdMetricsTest, BatchScansFlushWorkCounters) {
  MetricsRegistry registry;
  AttachGlobalMetrics(&registry);
  const std::size_t n = 1000;
  Relation r = RandomNumericRelation(n, 5, 71);
  DistanceEvaluator ev(r.schema());
  auto view = ColumnarView::Build(r, ev);
  AttachGlobalMetrics(nullptr);
  ASSERT_NE(view, nullptr);
  ASSERT_NE(view->scan_counters().rows_scanned, nullptr);
  ASSERT_NE(view->scan_counters().certain_rejects, nullptr);

  Rng rng(7);
  FlatKernel kernel(*view, RandomQuery(5, &rng));
  std::vector<std::size_t> rows;
  std::vector<double> dists;
  kernel.CollectWithin(2.0, &rows, &dists);
  EXPECT_EQ(view->scan_counters().rows_scanned->Value(), n);
  EXPECT_LE(view->scan_counters().certain_rejects->Value(), n);
  kernel.CountWithin(2.0);
  EXPECT_EQ(view->scan_counters().rows_scanned->Value(), 2 * n);
  std::vector<double> fill(n);
  kernel.FillDistances(fill.data(), 0, n);
  EXPECT_EQ(view->scan_counters().rows_scanned->Value(), 3 * n);

  // The dispatch-tier gauge is exported at attach time.
  EXPECT_EQ(registry.GetGauge("disc_simd_tier")->Value(),
            static_cast<std::int64_t>(ActiveSimdTier()));
}

}  // namespace
}  // namespace disc
