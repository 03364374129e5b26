// Tier-parity suite for the SIMD distance kernels (DESIGN.md §12): every
// entry point of FlatKernel, on every dispatch tier the machine can run,
// must produce outputs bit-identical to the scalar reference — across lane
// tails (n % block ≠ 0), sub-lane inputs (n < one block), the narrowest and
// widest schemas, and NaN/±inf/denormal columns. Also covers the
// dispatch-resolution rules of common/cpu_features.h and the 64-byte
// column-alignment invariant.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/metrics.h"
#include "common/random.h"
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
/// by a comparison, nor reviving a lane that already rejected), ±infinity
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
  EXPECT_EQ(ParseSimdTier("avx2"), SimdTier::kAvx2);
  EXPECT_EQ(ParseSimdTier("AVX2"), SimdTier::kAvx2);
  EXPECT_FALSE(ParseSimdTier("sse2").has_value());
  EXPECT_FALSE(ParseSimdTier("avx512").has_value());
  EXPECT_FALSE(ParseSimdTier("").has_value());
  EXPECT_FALSE(ParseSimdTier("auto").has_value());
}

TEST(CpuFeaturesTest, ResolveClampsToDetected) {
  // No override: detected wins.
  EXPECT_EQ(ResolveSimdTier(nullptr, SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("auto", SimdTier::kScalar), SimdTier::kScalar);
  // Narrowing overrides apply.
  EXPECT_EQ(ResolveSimdTier("off", SimdTier::kAvx2), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("scalar", SimdTier::kAvx2), SimdTier::kScalar);
  // Widening past the CPU clamps down — never SIGILL.
  EXPECT_EQ(ResolveSimdTier("avx2", SimdTier::kScalar), SimdTier::kScalar);
  // Unknown values, "sse2" among them, mean auto (with a warning).
  EXPECT_EQ(ResolveSimdTier("avx512", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("sse2", SimdTier::kAvx2), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("sse2", SimdTier::kScalar), SimdTier::kScalar);
}

TEST(CpuFeaturesTest, TierNamesRoundTrip) {
  for (SimdTier tier : {SimdTier::kScalar, SimdTier::kAvx2}) {
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
  EXPECT_EQ(view->simd_tier(), DetectedSimdTier());
  view->set_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(view->simd_tier(), SimdTier::kScalar);
}

// ---------------------------------------------------------------------------
// Tier parity: every entry point, every shape
// ---------------------------------------------------------------------------

class SimdNormTest : public testing::TestWithParam<LpNorm> {};

/// The core sweep: for each (n, m) shape, pin the view to scalar to record
/// the reference, then re-run every kernel entry point under each runnable
/// vector tier and demand bit-identical results. Shapes straddle the block
/// widths (n % 4, n % 2, n < one block) and the schema widths, up to the
/// kCapacity-wide 64.
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
    DistanceEvaluator ev(r.schema(), norm);
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);
    for (int qi = 0; qi < 3; ++qi) {
      Tuple query = RandomQuery(shape.m, &rng);

      // Materialize every scalar reference value BEFORE switching tiers:
      // FlatKernel dispatches on the view's current tier at call time, so
      // reference calls made after set_simd_tier would compare a tier to
      // itself.
      view->set_simd_tier(SimdTier::kScalar);
      FlatKernel ref_kernel(*view, query);
      std::vector<double> ref_fill(shape.n);
      ref_kernel.FillDistances(ref_fill.data(), 0, shape.n);
      // ε at a random rank in the top quarter of the distances, so most
      // rows are accepted and every accepted distance is compared bit for
      // bit (a last-bit difference in a rejected row would not show).
      std::vector<double> ranked = ref_fill;
      std::sort(ranked.begin(), ranked.end());
      const double eps = ranked[static_cast<std::size_t>(
          rng.Uniform(0.75, 1.0) * static_cast<double>(shape.n - 1))];
      const ScanResult ref = ScanOn(*view, query, eps);
      ASSERT_GT(2 * ref.rows.size(), shape.n) << "eps=" << eps;
      std::vector<double> ref_attr(shape.n);
      ref_kernel.FillAttributeDistances(shape.m / 2, ref_attr.data());

      for (SimdTier tier : RunnableTiers()) {
        view->set_simd_tier(tier);
        SCOPED_TRACE(testing::Message()
                     << "tier=" << SimdTierName(tier) << " n=" << shape.n
                     << " m=" << shape.m << " eps=" << eps);
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
      }
    }
  }
}

/// Fill values equal element for element, NaN compared as NaN (EXPECT_EQ on
/// two NaNs fails).
void ExpectSameFill(const std::vector<double>& got,
                    const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::isnan(want[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "row " << i;
    } else {
      EXPECT_EQ(got[i], want[i]) << "row " << i;
    }
  }
}

/// Non-finite parity: the early exit must never dismiss NaN rows (NaN
/// comparisons are false), ±inf must overflow identically, denormals must
/// not flush. Queries include finite, infinite and NaN coordinates. The
/// scalar tier is held to DistanceEvaluator, every vector tier to the
/// scalar tier.
TEST_P(SimdNormTest, EdgeValuesMatchScalarBitForBit) {
  const LpNorm norm = GetParam();
  for (std::size_t dims : {2u, 5u, 24u}) {
    Relation r = EdgeCaseRelation(dims);
    const std::size_t n = r.size();
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
      std::vector<double> want_fill(n);
      for (std::size_t i = 0; i < n; ++i) {
        want_fill[i] = ev.Distance(query, r[i]);
      }
      for (double eps : {0.0, 1.0, 1e300, kInf}) {
        // Scalar references materialized before any tier switch (FlatKernel
        // dispatches on the view's current tier at call time).
        view->set_simd_tier(SimdTier::kScalar);
        const ScanResult ref = ScanOn(*view, query, eps);
        FlatKernel ref_kernel(*view, query);
        std::vector<double> ref_fill(n);
        ref_kernel.FillDistances(ref_fill.data(), 0, n);
        {
          SCOPED_TRACE(testing::Message() << "scalar tier vs evaluator, dims="
                                          << dims << " eps=" << eps);
          ScanResult want;
          for (std::size_t i = 0; i < n; ++i) {
            const double d = ev.DistanceWithin(query, r[i], eps);
            if (d <= eps) {
              want.rows.push_back(i);
              want.dists.push_back(d);
            }
          }
          EXPECT_EQ(ref.rows, want.rows);
          EXPECT_EQ(ref.dists, want.dists);
          EXPECT_EQ(ref.count, want.rows.size());
          ExpectSameFill(ref_fill, want_fill);
        }
        for (SimdTier tier : RunnableTiers()) {
          view->set_simd_tier(tier);
          SCOPED_TRACE(testing::Message() << "tier=" << SimdTierName(tier)
                                          << " dims=" << dims
                                          << " eps=" << eps);
          const ScanResult got = ScanOn(*view, query, eps);
          EXPECT_EQ(got.rows, ref.rows);
          // Accepted distances are never NaN; compare exactly.
          EXPECT_EQ(got.dists, ref.dists);
          EXPECT_EQ(got.count, ref.count);
          FlatKernel kernel(*view, query);
          std::vector<double> fill(n);
          kernel.FillDistances(fill.data(), 0, n);
          ExpectSameFill(fill, ref_fill);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllNorms, SimdNormTest,
                         testing::Values(LpNorm::kL2, LpNorm::kL1,
                                         LpNorm::kLInf));

// ---------------------------------------------------------------------------
// Wide-index end-to-end parity
// ---------------------------------------------------------------------------

TEST(SimdPointKernelTest, WideKdTreeMatchesBruteForceBitForBit) {
  // A wide tree: its leaves run the batch kernels on the active tier.
  const std::size_t dims = 12;
  Relation r = RandomNumericRelation(400, dims, 59);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
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

/// Rows whose LpAccumulator recurrence exceeds `eps` after some add — the
/// early exits of DistanceEvaluator::DistanceWithin(query, row, eps).
std::uint64_t EarlyExits(const Relation& r, const Tuple& query, LpNorm norm,
                         double eps) {
  std::uint64_t exits = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    LpAccumulator acc(norm);
    for (std::size_t a = 0; a < r.arity(); ++a) {
      acc.Add(std::fabs(query[a].num() - r[i][a].num()));
      if (acc.Exceeds(eps)) {
        ++exits;
        break;
      }
    }
  }
  return exits;
}

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

  // Full scans do the same work on every tier: each CollectWithin and
  // CountWithin scans all rows and rejects exactly the rows whose canonical
  // recurrence exits early, so the counters read the same on the scalar
  // and vector tiers. The rows include NaN and ±inf cells, and rows one ulp
  // past ε = 2 from the zero query on a single attribute.
  Relation mixed = RandomNumericRelation(61, 5, 73);
  const Relation edge = EdgeCaseRelation(5);
  for (std::size_t i = 0; i < edge.size(); ++i) {
    Tuple t = edge[i];
    mixed.AppendUnchecked(std::move(t));
  }
  for (std::size_t a = 0; a < 5; ++a) {
    Tuple t(5);
    for (std::size_t d = 0; d < 5; ++d) {
      t[d] = Value(d == a ? std::nextafter(2.0, kInf) : 0.0);
    }
    mixed.AppendUnchecked(std::move(t));
  }
  // A random query, the zero query, one at +inf everywhere and one with a
  // NaN coordinate.
  const std::vector<Tuple> queries = {RandomQuery(5, &rng), edge[0], edge[7],
                                      edge[9]};
  for (LpNorm norm : {LpNorm::kL2, LpNorm::kL1, LpNorm::kLInf}) {
    AttachGlobalMetrics(&registry);
    DistanceEvaluator mixed_ev(mixed.schema(), norm);
    auto mixed_view = ColumnarView::Build(mixed, mixed_ev);
    AttachGlobalMetrics(nullptr);
    ASSERT_NE(mixed_view, nullptr);
    const Counter* scanned = mixed_view->scan_counters().rows_scanned;
    const Counter* rejects = mixed_view->scan_counters().certain_rejects;
    for (const Tuple& query : queries) {
      for (double eps : {0.0, 2.0, 1e300, kInf}) {
        const std::uint64_t exits = EarlyExits(mixed, query, norm, eps);
        for (SimdTier tier : RunnableTiers()) {
          mixed_view->set_simd_tier(tier);
          SCOPED_TRACE(testing::Message()
                       << "tier=" << SimdTierName(tier) << " norm="
                       << static_cast<int>(norm) << " eps=" << eps);
          const std::uint64_t scanned_before = scanned->Value();
          const std::uint64_t rejects_before = rejects->Value();
          FlatKernel scan(*mixed_view, query);
          rows.clear();
          dists.clear();
          scan.CollectWithin(eps, &rows, &dists);
          scan.CountWithin(eps);
          EXPECT_EQ(scanned->Value() - scanned_before, 2 * mixed.size());
          EXPECT_EQ(rejects->Value() - rejects_before, 2 * exits);
        }
      }
    }
  }
}

}  // namespace
}  // namespace disc
