// Bit-identity suite for the columnar fast path: every distance, every
// threshold verdict, every neighbor set, every bound and every save outcome
// must match the scalar reference path EXACTLY (EXPECT_EQ on doubles, not
// EXPECT_NEAR) — the fast path is an implementation detail, never a
// semantics change.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/bounds.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/search_distance_cache.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/brute_force_index.h"
#include "index/grid_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"
#include "index/kth_neighbor_cache.h"

namespace disc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Relation RandomNumericRelation(std::size_t n, std::size_t dims,
                               std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      t[d] = Value(rng.Uniform(-10, 10));
    }
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

Tuple RandomQuery(std::size_t dims, Rng* rng) {
  Tuple q(dims);
  for (std::size_t d = 0; d < dims; ++d) q[d] = Value(rng->Uniform(-12, 12));
  return q;
}

/// Relation exercising the edge values the fast pass must not mishandle:
/// NaN, +-huge magnitudes (their squares overflow to inf), denormals, exact
/// duplicates of the query, and negative zero.
Relation EdgeCaseRelation(std::size_t dims) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  Relation r(Schema::Numeric(dims));
  std::vector<std::vector<double>> rows = {
      std::vector<double>(dims, 0.0),   std::vector<double>(dims, -0.0),
      std::vector<double>(dims, huge),  std::vector<double>(dims, -huge),
      std::vector<double>(dims, tiny),  std::vector<double>(dims, 1.0),
      std::vector<double>(dims, -1.0),
  };
  rows.push_back(std::vector<double>(dims, 0.0));
  rows.back()[0] = nan;  // NaN in one attribute
  rows.push_back(std::vector<double>(dims, nan));  // NaN everywhere
  rows.push_back(std::vector<double>(dims, 0.5));
  rows.back()[dims - 1] = huge;  // huge only in the last (low-variance-ish)
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

AttributeSet RandomSubset(std::size_t dims, Rng* rng) {
  AttributeSet x;
  for (std::size_t a = 0; a < dims; ++a) {
    if (rng->Uniform() < 0.5) x.insert(a);
  }
  return x;
}

// ---------------------------------------------------------------------------
// FlatKernel vs DistanceEvaluator
// ---------------------------------------------------------------------------

/// The tiers this machine can execute, scalar first (forcing a higher tier
/// clamps to DetectedSimdTier(), so the list never names one that faults).
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (DetectedSimdTier() >= SimdTier::kSse2) tiers.push_back(SimdTier::kSse2);
  if (DetectedSimdTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

class KernelNormTest : public testing::TestWithParam<LpNorm> {};

/// Every FlatKernel entry point, on every runnable tier, against the
/// independent DistanceEvaluator (virtual per-attribute metrics aggregated
/// by LpAccumulator) — not against another columnar tier. m = 24 is past
/// simd::kGatherMinArity, so the AVX2 gather pre-pass of DistanceWithin and
/// (for the all-attribute subset) DistanceOnWithin meets the reference too;
/// 301 rows leave a partial lane block at the end of every batch scan.
TEST_P(KernelNormTest, KernelMatchesEvaluatorBitForBit) {
  for (std::size_t dims : {std::size_t{6}, std::size_t{24}}) {
    Relation r = RandomNumericRelation(301, dims, 11);
    const std::size_t n = r.size();
    AttributeSet all;
    for (std::size_t a = 0; a < dims; ++a) all.insert(a);
    for (bool scaled : {false, true}) {
      DistanceEvaluator ev = scaled ? ScaledEvaluator(r.schema(), GetParam())
                                    : DistanceEvaluator(r.schema(), GetParam());
      auto view = ColumnarView::Build(r, ev);
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->unit_scales(), !scaled);

      for (SimdTier tier : RunnableTiers()) {
        view->set_simd_tier(tier);
        SCOPED_TRACE(testing::Message()
                     << "tier=" << SimdTierName(tier) << " dims=" << dims
                     << " scaled=" << scaled);
        Rng rng(7);
        for (int qi = 0; qi < 10; ++qi) {
          Tuple query = RandomQuery(dims, &rng);
          FlatKernel kernel(*view, query);
          std::vector<double> full(n);
          for (std::size_t row = 0; row < n; ++row) {
            double expected = ev.Distance(query, r[row]);
            full[row] = expected;
            EXPECT_EQ(kernel.Distance(row), expected);

            for (double threshold :
                 {0.0, expected * 0.5, expected, expected * 1.5, 25.0, kInf}) {
              double want = ev.DistanceWithin(query, r[row], threshold);
              double got = kernel.DistanceWithin(row, threshold);
              // Bit-identical including the +inf-on-reject encoding.
              EXPECT_EQ(got, want) << "threshold=" << threshold;
            }

            for (const AttributeSet& x : {RandomSubset(dims, &rng), all}) {
              double sub = ev.DistanceOn(x, query, r[row]);
              EXPECT_EQ(kernel.DistanceOn(x, row), sub);
              for (double threshold : {0.0, sub * 0.5, sub, sub * 2.0}) {
                EXPECT_EQ(kernel.DistanceOnWithin(x, row, threshold),
                          ev.DistanceOnWithin(x, query, r[row], threshold));
              }
            }
          }

          // Batch scans: the accepted rows, in ascending order, with the
          // evaluator's DistanceWithin value. Radii at a row's exact
          // distance put a tie on the boundary.
          for (double eps : {0.0, full[17], full[42] * 1.1, kInf}) {
            std::vector<std::size_t> want_rows;
            std::vector<double> want_dists;
            for (std::size_t row = 0; row < n; ++row) {
              double d = ev.DistanceWithin(query, r[row], eps);
              if (d <= eps) {
                want_rows.push_back(row);
                want_dists.push_back(d);
              }
            }
            std::vector<std::size_t> rows;
            std::vector<double> dists;
            kernel.CollectWithin(eps, &rows, &dists);
            EXPECT_EQ(rows, want_rows) << "eps=" << eps;
            EXPECT_EQ(dists, want_dists) << "eps=" << eps;
            EXPECT_EQ(kernel.CountWithin(eps), want_rows.size())
                << "eps=" << eps;
          }

          // Full-distance fills over the whole range and over a range with
          // an unaligned head and tail.
          std::vector<double> fill(n);
          kernel.FillDistances(fill.data(), 0, n);
          EXPECT_EQ(fill, full);
          const std::size_t begin = 3;
          const std::size_t end = n - 2;
          std::vector<double> part(end - begin);
          kernel.FillDistances(part.data(), begin, end);
          EXPECT_EQ(part, std::vector<double>(full.begin() + begin,
                                              full.begin() + end));

          for (std::size_t a = 0; a < dims; ++a) {
            std::vector<double> attr(n);
            kernel.FillAttributeDistances(a, attr.data());
            for (std::size_t row = 0; row < n; ++row) {
              EXPECT_EQ(attr[row], ev.AttributeDistance(a, query[a], r[row][a]))
                  << "a=" << a << " row=" << row;
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelNormTest, KernelMatchesEvaluatorOnEdgeValues) {
  const std::size_t dims = 4;
  Relation r = EdgeCaseRelation(dims);
  DistanceEvaluator ev(r.schema(), GetParam());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Tuple> queries;
  for (double v : {0.0, 1.0, std::numeric_limits<double>::max(), nan}) {
    Tuple q(dims);
    for (std::size_t d = 0; d < dims; ++d) q[d] = Value(v);
    queries.push_back(std::move(q));
  }

  for (const Tuple& query : queries) {
    FlatKernel kernel(*view, query);
    for (std::size_t row = 0; row < r.size(); ++row) {
      double expected = ev.Distance(query, r[row]);
      double got = kernel.Distance(row);
      if (std::isnan(expected)) {
        EXPECT_TRUE(std::isnan(got));
      } else {
        EXPECT_EQ(got, expected);
      }
      for (double threshold : {0.0, 1.0, 1e300, kInf}) {
        double want = ev.DistanceWithin(query, r[row], threshold);
        double within = kernel.DistanceWithin(row, threshold);
        // The decision the call sites make is `d <= threshold`; it must
        // agree exactly (NaN totals fail it on both paths).
        EXPECT_EQ(within <= threshold, want <= threshold);
        if (!std::isnan(want)) {
          EXPECT_EQ(within, want);
        }
      }
    }
  }
}

TEST_P(KernelNormTest, ScanOrderPutsHighVarianceFirst) {
  Relation r(Schema::Numeric(3));
  Rng rng(3);
  for (int i = 0; i < 64; ++i) {
    Tuple t(3);
    t[0] = Value(rng.Uniform(0, 1));      // low variance
    t[1] = Value(rng.Uniform(-100, 100));  // high variance
    t[2] = Value(rng.Uniform(-5, 5));      // medium variance
    r.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(r.schema(), GetParam());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);
  ASSERT_EQ(view->scan_order().size(), 3u);
  EXPECT_EQ(view->scan_order()[0], 1u);
  EXPECT_EQ(view->scan_order()[2], 0u);
}

INSTANTIATE_TEST_SUITE_P(AllNorms, KernelNormTest,
                         testing::Values(LpNorm::kL1, LpNorm::kL2,
                                         LpNorm::kLInf));

TEST(ColumnarViewTest, IneligibleSchemasAndMetrics) {
  // String attribute -> ineligible.
  Schema mixed(std::vector<AttributeDef>{{"num", ValueKind::kNumeric},
                                         {"str", ValueKind::kString}});
  Relation rm(mixed);
  Tuple t(2);
  t[0] = Value(1.0);
  t[1] = Value("abc");
  rm.AppendUnchecked(std::move(t));
  DistanceEvaluator ev_mixed(mixed);
  EXPECT_FALSE(ColumnarView::Eligible(rm, ev_mixed));
  EXPECT_EQ(ColumnarView::Build(rm, ev_mixed), nullptr);

  // Custom (non-abs-diff) metric on a numeric attribute -> ineligible.
  Relation rn = RandomNumericRelation(10, 2, 5);
  std::vector<std::unique_ptr<AttributeMetric>> metrics;
  metrics.push_back(std::make_unique<AbsoluteDifferenceMetric>());
  metrics.push_back(std::make_unique<DiscreteMetric>());
  DistanceEvaluator ev_custom(rn.schema(), std::move(metrics));
  EXPECT_FALSE(ColumnarView::Eligible(rn, ev_custom));
  EXPECT_EQ(ColumnarView::Build(rn, ev_custom), nullptr);
  EXPECT_FALSE(ev_custom.AllScaledAbsoluteDifference());

  // Empty schema -> ineligible.
  Relation empty{Schema::Numeric(0)};
  DistanceEvaluator ev_empty(empty.schema());
  EXPECT_FALSE(ColumnarView::Eligible(empty, ev_empty));

  // Scaled metrics are columnar-eligible but not unit.
  DistanceEvaluator ev_scaled = ScaledEvaluator(rn.schema(), LpNorm::kL2);
  EXPECT_TRUE(ColumnarView::Eligible(rn, ev_scaled));
  EXPECT_TRUE(ev_scaled.AllScaledAbsoluteDifference());
  EXPECT_FALSE(ev_scaled.AllUnitAbsoluteDifference());
}

// ---------------------------------------------------------------------------
// Indexes: fast path vs scalar reference
// ---------------------------------------------------------------------------

TEST(IndexFastPathTest, BruteForceColumnarMatchesScalarBitForBit) {
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    Relation r = RandomNumericRelation(500, 5, 21);
    DistanceEvaluator ev(r.schema(), norm);
    BruteForceIndex fast(r, ev);
    BruteForceIndex scalar(r, ev, /*enable_fast_path=*/false);
    ASSERT_NE(fast.columnar_view(), nullptr);
    ASSERT_EQ(scalar.columnar_view(), nullptr);

    Rng rng(31);
    for (int qi = 0; qi < 25; ++qi) {
      Tuple query = RandomQuery(5, &rng);
      for (double eps : {0.5, 3.0, 9.0}) {
        std::vector<Neighbor> a = fast.RangeQuery(query, eps);
        std::vector<Neighbor> b = scalar.RangeQuery(query, eps);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].row, b[i].row);
          EXPECT_EQ(a[i].distance, b[i].distance);
        }
        EXPECT_EQ(fast.CountWithin(query, eps), scalar.CountWithin(query, eps));
        EXPECT_EQ(fast.CountWithin(query, eps, 3),
                  scalar.CountWithin(query, eps, 3));
      }
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{600}}) {
        std::vector<Neighbor> a = fast.KNearest(query, k);
        std::vector<Neighbor> b = scalar.KNearest(query, k);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].row, b[i].row);
          EXPECT_EQ(a[i].distance, b[i].distance);
        }
      }
    }
  }
}

TEST(IndexFastPathTest, BoundedHeapKnnMatchesFullSortSemantics) {
  // Duplicated points force distance ties; the (distance, row) tie-break
  // must pick the lowest rows, exactly like the old full-sort implementation.
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 30; ++i) {
    Tuple t(2);
    t[0] = Value(static_cast<double>(i % 3));
    t[1] = Value(0.0);
    r.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(r.schema());
  BruteForceIndex fast(r, ev);
  BruteForceIndex scalar(r, ev, /*enable_fast_path=*/false);
  Tuple query(2);
  query[0] = Value(0.0);
  query[1] = Value(0.0);
  for (std::size_t k = 1; k <= 30; ++k) {
    std::vector<Neighbor> a = fast.KNearest(query, k);
    std::vector<Neighbor> b = scalar.KNearest(query, k);
    ASSERT_EQ(a.size(), k);
    ASSERT_EQ(b.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
  // k=0 and k > n edge cases.
  EXPECT_TRUE(fast.KNearest(query, 0).empty());
  EXPECT_EQ(fast.KNearest(query, 100).size(), 30u);
}

TEST(IndexFastPathTest, KdTreeAndGridMatchBruteForceBitForBit) {
  // With the shared accumulator semantics all three indexes must now agree
  // exactly (not just approximately) on range/count results.
  Relation r = RandomNumericRelation(400, 3, 77);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  BruteForceIndex brute_scalar(r, ev, /*enable_fast_path=*/false);
  KdTree tree(r);
  GridIndex grid(r, /*cell_size=*/2.0);

  Rng rng(13);
  for (int qi = 0; qi < 25; ++qi) {
    Tuple query = RandomQuery(3, &rng);
    for (double eps : {0.8, 2.0, 6.0}) {
      std::vector<Neighbor> want = brute_scalar.RangeQuery(query, eps);
      for (const NeighborIndex* index :
           {static_cast<const NeighborIndex*>(&brute),
            static_cast<const NeighborIndex*>(&tree),
            static_cast<const NeighborIndex*>(&grid)}) {
        std::vector<Neighbor> got = index->RangeQuery(query, eps);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].row, want[i].row);
          EXPECT_EQ(got[i].distance, want[i].distance);
        }
        EXPECT_EQ(index->CountWithin(query, eps), want.size());
      }
    }
  }
}

TEST(IndexFastPathTest, FactoryFallsBackForNonUnitMetrics) {
  Relation r = RandomNumericRelation(50, 3, 9);
  DistanceEvaluator unit(r.schema());
  DistanceEvaluator scaled = ScaledEvaluator(r.schema(), LpNorm::kL2);

  // Unit metrics on a low-dim numeric relation: grid/kd as before.
  auto idx_unit = MakeNeighborIndex(r, unit, /*epsilon_hint=*/1.0);
  EXPECT_EQ(dynamic_cast<BruteForceIndex*>(idx_unit.get()), nullptr);

  // Non-unit scales: Kd/Grid would silently use the wrong metric — the
  // factory must fall back to BruteForce (whose columnar path handles
  // scales exactly).
  auto idx_scaled = MakeNeighborIndex(r, scaled, /*epsilon_hint=*/1.0);
  auto* brute = dynamic_cast<BruteForceIndex*>(idx_scaled.get());
  ASSERT_NE(brute, nullptr);
  EXPECT_NE(brute->columnar_view(), nullptr);

  // And the fallback really answers with the scaled metric.
  Rng rng(4);
  Tuple query = RandomQuery(3, &rng);
  std::vector<Neighbor> got = idx_scaled->RangeQuery(query, 2.0);
  BruteForceIndex reference(r, scaled, /*enable_fast_path=*/false);
  std::vector<Neighbor> want = reference.RangeQuery(query, 2.0);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row);
    EXPECT_EQ(got[i].distance, want[i].distance);
  }
}

// ---------------------------------------------------------------------------
// SearchDistanceCache and bounds
// ---------------------------------------------------------------------------

TEST(SearchDistanceCacheTest, MatchesEvaluatorColumnarAndScalarBacked) {
  const std::size_t dims = 5;
  Relation r = RandomNumericRelation(200, dims, 55);
  DistanceEvaluator ev(r.schema());
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);

  Rng rng(8);
  for (int qi = 0; qi < 5; ++qi) {
    Tuple outlier = RandomQuery(dims, &rng);
    SearchDistanceCache with_view(r, ev, outlier, view.get());
    SearchDistanceCache without_view(r, ev, outlier, nullptr);
    EXPECT_TRUE(with_view.columnar());
    EXPECT_FALSE(without_view.columnar());

    for (std::size_t row = 0; row < r.size(); ++row) {
      double expected = ev.Distance(outlier, r[row]);
      EXPECT_EQ(with_view.FullDistance(row), expected);
      EXPECT_EQ(without_view.FullDistance(row), expected);

      AttributeSet x = RandomSubset(dims, &rng);
      double sub = ev.DistanceOn(x, outlier, r[row]);
      EXPECT_EQ(with_view.DistanceOn(x, row), sub);
      EXPECT_EQ(without_view.DistanceOn(x, row), sub);
      for (double threshold : {0.0, sub * 0.5, sub, sub * 2.0}) {
        double want = ev.DistanceOnWithin(x, outlier, r[row], threshold);
        EXPECT_EQ(with_view.DistanceOnWithin(x, row, threshold), want);
        EXPECT_EQ(without_view.DistanceOnWithin(x, row, threshold), want);
      }
    }
  }
}

TEST(SearchDistanceCacheTest, BoundsIdenticalWithAndWithoutCache) {
  const std::size_t dims = 4;
  Relation r = RandomNumericRelation(150, dims, 99);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev);
  DistanceConstraint constraint{/*epsilon=*/3.0, /*eta=*/4};
  KthNeighborCache knn_cache(r, *index, constraint.eta);
  BoundsEngine bounds(r, ev, *index, knn_cache, constraint);
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);

  Rng rng(123);
  for (int qi = 0; qi < 8; ++qi) {
    Tuple outlier = RandomQuery(dims, &rng);
    SearchDistanceCache dcache(r, ev, outlier, view.get());
    for (int xi = 0; xi < 16; ++xi) {
      AttributeSet x = RandomSubset(dims, &rng);
      EXPECT_EQ(bounds.LowerBoundForX(outlier, x),
                bounds.LowerBoundForX(outlier, x, nullptr, &dcache));
      auto plain = bounds.UpperBoundForX(outlier, x);
      auto cached = bounds.UpperBoundForX(outlier, x, nullptr, &dcache);
      ASSERT_EQ(plain.has_value(), cached.has_value());
      if (plain.has_value()) {
        EXPECT_EQ(plain->cost, cached->cost);
        EXPECT_EQ(plain->donor_row, cached->donor_row);
        EXPECT_TRUE(plain->adjusted == cached->adjusted);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end saving: fast path vs scalar reference
// ---------------------------------------------------------------------------

void ExpectSameSaveResult(const SaveResult& a, const SaveResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.termination, b.termination);
  EXPECT_TRUE(a.adjusted == b.adjusted);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.adjusted_attributes.bits(), b.adjusted_attributes.bits());
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.stats.visited_sets, b.stats.visited_sets);
  EXPECT_EQ(a.stats.lb_prunes, b.stats.lb_prunes);
  EXPECT_EQ(a.kappa_exceeded, b.kappa_exceeded);
}

TEST(SaverFastPathTest, SaveOutcomesIdenticalOnNumericData) {
  const std::size_t dims = 4;
  Relation inliers = RandomNumericRelation(250, dims, 1001);
  DistanceEvaluator ev(inliers.schema());
  DistanceConstraint constraint{/*epsilon=*/2.5, /*eta=*/5};
  DiscSaver fast(inliers, ev, constraint);
  DiscSaver scalar(inliers, ev, constraint, /*enable_fast_path=*/false);

  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    Tuple outlier(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      outlier[d] = Value(rng.Uniform(-20, 20));
    }
    for (std::size_t kappa : {std::size_t{0}, std::size_t{2}}) {
      SaveOptions options;
      options.kappa = kappa;
      ExpectSameSaveResult(fast.Save(outlier, options),
                           scalar.Save(outlier, options));
    }
  }
}

TEST(SaverFastPathTest, SaveOutcomesIdenticalOnMixedData) {
  // Mixed schema: the columnar view is ineligible, but the per-search cache
  // still engages (scalar-backed) — outcomes must be identical to the fully
  // uncached reference.
  Schema mixed(std::vector<AttributeDef>{{"x", ValueKind::kNumeric},
                                         {"name", ValueKind::kString},
                                         {"y", ValueKind::kNumeric}});
  Relation inliers(mixed);
  Rng rng(5);
  const char* names[] = {"alpha", "beta", "gamma"};
  for (int i = 0; i < 120; ++i) {
    Tuple t(3);
    t[0] = Value(rng.Uniform(0, 4));
    t[1] = Value(names[i % 3]);
    t[2] = Value(rng.Uniform(0, 4));
    inliers.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(mixed);
  DistanceConstraint constraint{/*epsilon=*/2.0, /*eta=*/4};
  DiscSaver fast(inliers, ev, constraint);
  DiscSaver scalar(inliers, ev, constraint, /*enable_fast_path=*/false);

  for (int i = 0; i < 4; ++i) {
    Tuple outlier(3);
    outlier[0] = Value(rng.Uniform(10, 20));
    outlier[1] = Value("delta");
    outlier[2] = Value(rng.Uniform(10, 20));
    ExpectSameSaveResult(fast.Save(outlier), scalar.Save(outlier));
  }
}

TEST(SaverFastPathTest, SaveOutliersPipelineIdentical) {
  Relation data = RandomNumericRelation(200, 3, 2024);
  // Plant a few obvious outliers.
  Rng rng(2025);
  for (int i = 0; i < 5; ++i) {
    Tuple t(3);
    for (std::size_t d = 0; d < 3; ++d) t[d] = Value(rng.Uniform(40, 60));
    data.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(data.schema());
  OutlierSavingOptions options;
  options.constraint = {/*epsilon=*/3.0, /*eta=*/4};

  OutlierSavingOptions scalar_options = options;
  scalar_options.use_columnar_fast_path = false;

  SavedDataset fast = SaveOutliers(data, ev, options);
  SavedDataset scalar = SaveOutliers(data, ev, scalar_options);
  ASSERT_TRUE(fast.status.ok());
  ASSERT_TRUE(scalar.status.ok());
  ASSERT_EQ(fast.outlier_rows, scalar.outlier_rows);
  ASSERT_EQ(fast.records.size(), scalar.records.size());
  for (std::size_t i = 0; i < fast.records.size(); ++i) {
    EXPECT_EQ(fast.records[i].disposition, scalar.records[i].disposition);
    EXPECT_TRUE(fast.records[i].adjusted == scalar.records[i].adjusted);
    EXPECT_EQ(fast.records[i].cost, scalar.records[i].cost);
  }
  ASSERT_EQ(fast.repaired.size(), scalar.repaired.size());
  for (std::size_t i = 0; i < fast.repaired.size(); ++i) {
    EXPECT_TRUE(fast.repaired[i] == scalar.repaired[i]);
  }
}

TEST(ParallelScanTest, PooledBatchScansMatchSequentialBitForBit) {
  // The pooled CollectWithin/CountWithin overloads chunk the row range and
  // merge per-chunk results; the output must be identical element for
  // element to the sequential scan. 20k rows so the parallel path actually
  // engages (it needs n >= 2 * grain = 16384).
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    Relation r = RandomNumericRelation(20000, 4, 61);
    DistanceEvaluator ev(r.schema(), norm);
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);

    WorkStealingPool pool(4);
    Rng rng(67);
    for (int qi = 0; qi < 5; ++qi) {
      Tuple query = RandomQuery(4, &rng);
      FlatKernel kernel(*view, query);
      for (double eps : {0.5, 4.0, 12.0}) {
        std::vector<std::size_t> seq_rows, par_rows;
        std::vector<double> seq_dists, par_dists;
        kernel.CollectWithin(eps, &seq_rows, &seq_dists);
        kernel.CollectWithin(eps, &par_rows, &par_dists, &pool);
        ASSERT_EQ(par_rows.size(), seq_rows.size()) << "eps=" << eps;
        for (std::size_t i = 0; i < seq_rows.size(); ++i) {
          EXPECT_EQ(par_rows[i], seq_rows[i]);
          EXPECT_EQ(par_dists[i], seq_dists[i]);
        }
        EXPECT_EQ(kernel.CountWithin(eps, &pool), kernel.CountWithin(eps));
      }
    }
  }
}

TEST(ParallelScanTest, PooledScansFallBackOnSmallInputsAndSmallPools) {
  // Below the grain threshold, or with a single-thread/null pool, the
  // pooled overloads must take the sequential path and still agree.
  Relation r = RandomNumericRelation(500, 4, 71);
  DistanceEvaluator ev(r.schema(), LpNorm::kL2);
  auto view = ColumnarView::Build(r, ev);
  ASSERT_NE(view, nullptr);

  WorkStealingPool big(4);
  WorkStealingPool single(1);
  Rng rng(73);
  Tuple query = RandomQuery(4, &rng);
  FlatKernel kernel(*view, query);
  for (double eps : {1.0, 6.0}) {
    std::vector<std::size_t> want_rows;
    std::vector<double> want_dists;
    kernel.CollectWithin(eps, &want_rows, &want_dists);
    for (WorkStealingPool* pool :
         {static_cast<WorkStealingPool*>(nullptr), &single, &big}) {
      std::vector<std::size_t> rows;
      std::vector<double> dists;
      kernel.CollectWithin(eps, &rows, &dists, pool);
      EXPECT_EQ(rows, want_rows);
      EXPECT_EQ(dists, want_dists);
      EXPECT_EQ(kernel.CountWithin(eps, pool), want_rows.size());
    }
  }
}

}  // namespace
}  // namespace disc
