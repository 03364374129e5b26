// Bit-identity suite for the columnar tier: every distance, every threshold
// verdict, every neighbor set, every bound and every save outcome must match
// the scalar reference EXACTLY (EXPECT_EQ on doubles, not EXPECT_NEAR) —
// which tier runs is an implementation detail, never a semantics change.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/random.h"
#include "core/bounds.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/search_distance_cache.h"
#include "core/search_stats.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"
#include "index/kth_neighbor_cache.h"
#include "obs/explain.h"

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

/// |a − b| without claiming IsScaledAbsoluteDifference: the arithmetic of
/// the unit AbsoluteDifferenceMetric, so an evaluator built from it gives
/// the same answers while putting the saver, its index and its search cache
/// on the scalar reference tier.
class PlainAbsoluteDifference : public AttributeMetric {
 public:
  double Distance(const Value& a, const Value& b) const override {
    return std::fabs(a.num() - b.num());
  }
};

/// The default evaluator of `schema` with every numeric metric replaced by
/// PlainAbsoluteDifference.
DistanceEvaluator ScalarReferenceEvaluator(const Schema& schema,
                                           LpNorm norm = LpNorm::kL2) {
  std::vector<std::unique_ptr<AttributeMetric>> metrics;
  for (std::size_t a = 0; a < schema.arity(); ++a) {
    if (schema.kind(a) == ValueKind::kNumeric) {
      metrics.push_back(std::make_unique<PlainAbsoluteDifference>());
    } else {
      metrics.push_back(DefaultMetricFor(schema.kind(a)));
    }
  }
  return DistanceEvaluator(schema, std::move(metrics), norm);
}

/// Rows and distances equal element for element.
void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << "i=" << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "i=" << i;
  }
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
  if (DetectedSimdTier() >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

class KernelNormTest : public testing::TestWithParam<LpNorm> {};

/// Every FlatKernel entry point, on every runnable tier, against the
/// independent DistanceEvaluator (virtual per-attribute metrics aggregated
/// by LpAccumulator) — not against another columnar tier. m ∈ {6, 24}; 301
/// rows leave a partial lane block at the end of every batch scan.
TEST_P(KernelNormTest, KernelMatchesEvaluatorBitForBit) {
  for (std::size_t dims : {std::size_t{6}, std::size_t{24}}) {
    Relation r = RandomNumericRelation(301, dims, 11);
    const std::size_t n = r.size();
    DistanceEvaluator ev(r.schema(), GetParam());
    auto view = ColumnarView::Build(r, ev);
    ASSERT_NE(view, nullptr);

    for (SimdTier tier : RunnableTiers()) {
      view->set_simd_tier(tier);
      SCOPED_TRACE(testing::Message()
                   << "tier=" << SimdTierName(tier) << " dims=" << dims);
      Rng rng(7);
      for (int qi = 0; qi < 10; ++qi) {
        Tuple query = RandomQuery(dims, &rng);
        FlatKernel kernel(*view, query);
        std::vector<double> full(n);
        for (std::size_t row = 0; row < n; ++row) {
          full[row] = ev.Distance(query, r[row]);
        }

        // Batch scans: the accepted rows, in ascending order, with the
        // evaluator's DistanceWithin value. Radii at a row's exact
        // distance put a tie on the boundary.
        for (double eps : {0.0, full[17], full[42] * 1.1, 25.0, kInf}) {
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
          EXPECT_EQ(kernel.CountWithin(eps), want_rows.size()) << "eps=" << eps;

          // The range-restricted visit both scans run on, over rows with
          // an unaligned head and tail; then with a sink that stops at
          // its first hit, which ends the visit with that hit's lane
          // block (at most 4 rows, one on the scalar tier).
          const std::size_t begin = 3;
          const std::size_t end = n - 2;
          std::vector<std::size_t> part_rows;
          std::vector<double> part_dists;
          for (std::size_t i = 0; i < want_rows.size(); ++i) {
            if (want_rows[i] >= begin && want_rows[i] < end) {
              part_rows.push_back(want_rows[i]);
              part_dists.push_back(want_dists[i]);
            }
          }
          struct Sink {
            bool stop;
            std::vector<std::size_t> rows;
            std::vector<double> dists;
          };
          auto hit = +[](void* ctx, std::size_t row, double d) {
            auto* sink = static_cast<Sink*>(ctx);
            sink->rows.push_back(row);
            sink->dists.push_back(d);
            return !sink->stop;
          };
          Sink all{false, {}, {}};
          simd::ScanDelta delta;
          kernel.VisitWithin(eps, begin, end, hit, &all, &delta);
          EXPECT_EQ(all.rows, part_rows) << "eps=" << eps;
          EXPECT_EQ(all.dists, part_dists) << "eps=" << eps;
          EXPECT_EQ(delta.rows_scanned, end - begin);
          Sink first{true, {}, {}};
          kernel.VisitWithin(eps, begin, end, hit, &first, &delta);
          ASSERT_EQ(first.rows.empty(), part_rows.empty());
          if (!part_rows.empty()) {
            EXPECT_EQ(first.rows, std::vector<std::size_t>(
                                      part_rows.begin(),
                                      part_rows.begin() + first.rows.size()));
            EXPECT_EQ(first.rows.back() / 4, first.rows.front() / 4);
          }
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

/// NaN, ±huge, denormal and −0 rows through the batch entry points on
/// every runnable tier: the fill against DistanceEvaluator::Distance (NaN
/// compared as NaN), the scans against DistanceEvaluator::DistanceWithin —
/// a NaN total fails `d <= threshold` on both paths, so no scan reports it.
TEST_P(KernelNormTest, KernelMatchesEvaluatorOnEdgeValues) {
  const std::size_t dims = 4;
  Relation r = EdgeCaseRelation(dims);
  const std::size_t n = r.size();
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

  for (SimdTier tier : RunnableTiers()) {
    view->set_simd_tier(tier);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE(testing::Message()
                   << "tier=" << SimdTierName(tier) << " query=" << qi);
      const Tuple& query = queries[qi];
      FlatKernel kernel(*view, query);
      std::vector<double> fill(n);
      kernel.FillDistances(fill.data(), 0, n);
      for (std::size_t row = 0; row < n; ++row) {
        double expected = ev.Distance(query, r[row]);
        if (std::isnan(expected)) {
          EXPECT_TRUE(std::isnan(fill[row])) << "row=" << row;
        } else {
          EXPECT_EQ(fill[row], expected) << "row=" << row;
        }
      }
      for (double threshold : {0.0, 1.0, 1e300, kInf}) {
        std::vector<std::size_t> want_rows;
        std::vector<double> want_dists;
        for (std::size_t row = 0; row < n; ++row) {
          double d = ev.DistanceWithin(query, r[row], threshold);
          if (d <= threshold) {
            want_rows.push_back(row);
            want_dists.push_back(d);
          }
        }
        std::vector<std::size_t> rows;
        std::vector<double> dists;
        kernel.CollectWithin(threshold, &rows, &dists);
        EXPECT_EQ(rows, want_rows) << "threshold=" << threshold;
        EXPECT_EQ(dists, want_dists) << "threshold=" << threshold;
        EXPECT_EQ(kernel.CountWithin(threshold), want_rows.size())
            << "threshold=" << threshold;
      }
    }
  }
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
  EXPECT_FALSE(ev_custom.AllUnitAbsoluteDifference());

  // Empty schema -> ineligible.
  Relation empty{Schema::Numeric(0)};
  DistanceEvaluator ev_empty(empty.schema());
  EXPECT_FALSE(ColumnarView::Eligible(empty, ev_empty));

  // A scaled absolute difference is not the unit metric: ineligible, so it
  // runs on the scalar reference.
  std::vector<std::unique_ptr<AttributeMetric>> scaled;
  scaled.push_back(std::make_unique<AbsoluteDifferenceMetric>());
  scaled.push_back(std::make_unique<AbsoluteDifferenceMetric>(2.0));
  DistanceEvaluator ev_scaled(rn.schema(), std::move(scaled));
  EXPECT_FALSE(ev_scaled.AllUnitAbsoluteDifference());
  EXPECT_FALSE(ColumnarView::Eligible(rn, ev_scaled));
  EXPECT_EQ(ColumnarView::Build(rn, ev_scaled), nullptr);

  // Unit metrics on 1 to 64 numeric attributes -> eligible; 65 -> not.
  for (std::size_t dims : {std::size_t{1}, std::size_t{64}}) {
    Relation r = RandomNumericRelation(5, dims, 6);
    EXPECT_TRUE(ColumnarView::Eligible(r, DistanceEvaluator(r.schema())));
  }
  Relation wide = RandomNumericRelation(5, 65, 6);
  EXPECT_FALSE(ColumnarView::Eligible(wide, DistanceEvaluator(wide.schema())));
}

// ---------------------------------------------------------------------------
// Indexes: the kd-tree vs the scalar reference
// ---------------------------------------------------------------------------

TEST(IndexFastPathTest, KdTreeMatchesBruteForceBitForBit) {
  // The kd-tree's columnar leaf scans and box pruning against the scalar
  // BruteForceIndex, on every query kind: range, count, capped count and
  // kNN (k = 600 exceeds n).
  for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
    Relation r = RandomNumericRelation(500, 5, 21);
    DistanceEvaluator ev(r.schema(), norm);
    auto tree = MakeNeighborIndex(r, ev);
    ASSERT_STREQ(tree->Name(), "kd_tree");
    BruteForceIndex scalar(r, ev);

    Rng rng(31);
    for (int qi = 0; qi < 25; ++qi) {
      Tuple query = RandomQuery(5, &rng);
      for (double eps : {0.5, 3.0, 9.0}) {
        ExpectSameNeighbors(tree->RangeQuery(query, eps),
                            scalar.RangeQuery(query, eps));
        EXPECT_EQ(tree->CountWithin(query, eps),
                  scalar.CountWithin(query, eps));
        EXPECT_EQ(tree->CountWithin(query, eps, 3),
                  scalar.CountWithin(query, eps, 3));
      }
      for (std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{600}}) {
        ExpectSameNeighbors(tree->KNearest(query, k),
                            scalar.KNearest(query, k));
      }
    }
  }
}

TEST(IndexFastPathTest, BoundedHeapKnnMatchesFullSortSemantics) {
  // Duplicated points force distance ties; the (distance, row) tie-break
  // must pick the lowest rows, exactly like a full sort.
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 30; ++i) {
    Tuple t(2);
    t[0] = Value(static_cast<double>(i % 3));
    t[1] = Value(0.0);
    r.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator ev(r.schema());
  KdTree tree(r);
  BruteForceIndex scalar(r, ev);
  Tuple query(2);
  query[0] = Value(0.0);
  query[1] = Value(0.0);
  for (std::size_t k = 1; k <= 30; ++k) {
    std::vector<Neighbor> a = tree.KNearest(query, k);
    std::vector<Neighbor> b = scalar.KNearest(query, k);
    ASSERT_EQ(a.size(), k);
    ASSERT_EQ(b.size(), k);
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
  // k=0 and k > n edge cases.
  EXPECT_TRUE(tree.KNearest(query, 0).empty());
  EXPECT_EQ(tree.KNearest(query, 100).size(), 30u);
}

/// The evaluator of `schema` with AbsoluteDifferenceMetric(2.0) on
/// attribute `scaled_attr` and the unit metric elsewhere.
DistanceEvaluator HalfScaleEvaluator(const Schema& schema,
                                     std::size_t scaled_attr) {
  std::vector<std::unique_ptr<AttributeMetric>> metrics;
  for (std::size_t a = 0; a < schema.arity(); ++a) {
    metrics.push_back(std::make_unique<AbsoluteDifferenceMetric>(
        a == scaled_attr ? 2.0 : 1.0));
  }
  return DistanceEvaluator(schema, std::move(metrics));
}

/// `r` with attribute `a` halved in every row (and in no other way
/// changed). Halving is exact in binary floating point, so the unit metric
/// on the halved attribute equals AbsoluteDifferenceMetric(2.0) on the
/// original, bit for bit.
Relation HalveAttribute(const Relation& r, std::size_t a) {
  Relation out = r;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i][a] = Value(r[i][a].num() / 2);
  }
  return out;
}

TEST(IndexFastPathTest, FactoryFallsBackForNonUnitMetrics) {
  Relation r = RandomNumericRelation(50, 3, 9);
  DistanceEvaluator unit(r.schema());
  DistanceEvaluator scaled = HalfScaleEvaluator(r.schema(), 1);

  // Unit metrics on a numeric relation: the kd-tree.
  EXPECT_STREQ(MakeNeighborIndex(r, unit, /*epsilon_hint=*/1.0)->Name(),
               "kd_tree");

  // A non-unit scale: no columnar view, and the factory falls back to the
  // scalar reference (the kd-tree would silently use the wrong metric).
  EXPECT_EQ(ColumnarView::Build(r, scaled), nullptr);
  auto idx_scaled = MakeNeighborIndex(r, scaled, /*epsilon_hint=*/1.0);
  EXPECT_STREQ(idx_scaled->Name(), "brute_force");

  // And the fallback really answers with the scaled metric: exactly what
  // the unit-metric kd-tree answers over the relation with that attribute
  // halved.
  Relation halved = HalveAttribute(r, 1);
  KdTree tree(halved);
  Rng rng(4);
  for (int qi = 0; qi < 5; ++qi) {
    Tuple query = RandomQuery(3, &rng);
    Tuple halved_query = query;
    halved_query[1] = Value(query[1].num() / 2);
    ExpectSameNeighbors(idx_scaled->RangeQuery(query, 2.0),
                        tree.RangeQuery(halved_query, 2.0));
    ExpectSameNeighbors(idx_scaled->KNearest(query, 5),
                        tree.KNearest(halved_query, 5));
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
      for (std::size_t a = 0; a < dims; ++a) {
        double want = ev.AttributeDistance(a, outlier[a], r[row][a]);
        EXPECT_EQ(with_view.attribute_row(a)[row], want);
        EXPECT_EQ(without_view.attribute_row(a)[row], want);
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
  DistanceEvaluator scalar_ev = ScalarReferenceEvaluator(inliers.schema());
  ASSERT_FALSE(ColumnarView::Eligible(inliers, scalar_ev));
  DistanceConstraint constraint{/*epsilon=*/2.5, /*eta=*/5};
  DiscSaver fast(inliers, ev, constraint);
  DiscSaver scalar(inliers, scalar_ev, constraint);

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
  // Mixed schema: no columnar view, so the saver and its search cache run
  // on the scalar evaluator whatever the numeric metric claims about
  // itself — outcomes with the default metrics and with the plain
  // test-local ones must be identical.
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
  DistanceEvaluator scalar_ev = ScalarReferenceEvaluator(mixed);
  DistanceConstraint constraint{/*epsilon=*/2.0, /*eta=*/4};
  DiscSaver fast(inliers, ev, constraint);
  DiscSaver scalar(inliers, scalar_ev, constraint);

  for (int i = 0; i < 4; ++i) {
    Tuple outlier(3);
    outlier[0] = Value(rng.Uniform(10, 20));
    outlier[1] = Value("delta");
    outlier[2] = Value(rng.Uniform(10, 20));
    ExpectSameSaveResult(fast.Save(outlier), scalar.Save(outlier));
  }
}

/// A 200 × 3 uniform relation plus five planted outliers far outside it.
Relation RelationWithPlantedOutliers() {
  Relation data = RandomNumericRelation(200, 3, 2024);
  Rng rng(2025);
  for (int i = 0; i < 5; ++i) {
    Tuple t(3);
    for (std::size_t d = 0; d < 3; ++d) t[d] = Value(rng.Uniform(40, 60));
    data.AppendUnchecked(std::move(t));
  }
  return data;
}

TEST(SaverFastPathTest, SaveOutliersPipelineIdentical) {
  // The whole pipeline — index, split, kNN cache, saver and search cache —
  // on the columnar tier vs on the scalar reference tier.
  Relation data = RelationWithPlantedOutliers();
  DistanceEvaluator ev(data.schema());
  DistanceEvaluator scalar_ev = ScalarReferenceEvaluator(data.schema());
  OutlierSavingOptions options;
  options.constraint = {/*epsilon=*/3.0, /*eta=*/4};

  SavedDataset fast = SaveOutliers(data, ev, options);
  SavedDataset scalar = SaveOutliers(data, scalar_ev, options);
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

TEST(SaverFastPathTest, ScaledMetricMatchesHalvedUnitRun) {
  // AbsoluteDifferenceMetric(2.0) on one attribute makes the relation
  // ineligible, so the whole pipeline runs on the scalar tier (brute-force
  // index, scalar search cache). The unit metric over the relation with
  // that attribute halved sees bit-identical distances on the columnar
  // kd-tree tier, so both runs must agree record for record, the halved
  // run's adjusted values doubled back.
  const std::size_t attr = 1;
  Relation data = RelationWithPlantedOutliers();
  Relation halved = HalveAttribute(data, attr);
  DistanceEvaluator scaled = HalfScaleEvaluator(data.schema(), attr);
  DistanceEvaluator unit(halved.schema());
  ASSERT_EQ(ColumnarView::Build(data, scaled), nullptr);
  ASSERT_STREQ(MakeNeighborIndex(data, scaled)->Name(), "brute_force");
  ASSERT_STREQ(MakeNeighborIndex(halved, unit)->Name(), "kd_tree");

  OutlierSavingOptions options;
  options.constraint = {/*epsilon=*/3.0, /*eta=*/4};
  SavedDataset got = SaveOutliers(data, scaled, options);
  SavedDataset want = SaveOutliers(halved, unit, options);
  ASSERT_TRUE(got.status.ok());
  ASSERT_TRUE(want.status.ok());
  ASSERT_EQ(got.inlier_rows, want.inlier_rows);
  ASSERT_EQ(got.outlier_rows, want.outlier_rows);
  ASSERT_EQ(got.records.size(), want.records.size());
  std::size_t saved = 0;
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "record " << i);
    const OutlierRecord& g = got.records[i];
    const OutlierRecord& w = want.records[i];
    EXPECT_EQ(g.disposition, w.disposition);
    EXPECT_EQ(g.termination, w.termination);
    EXPECT_EQ(g.cost, w.cost);
    EXPECT_EQ(g.lower_bound, w.lower_bound);
    EXPECT_EQ(g.adjusted_attributes.bits(), w.adjusted_attributes.bits());
    Tuple doubled = w.adjusted;
    doubled[attr] = Value(w.adjusted[attr].num() * 2);
    EXPECT_TRUE(g.adjusted == doubled);
    if (g.disposition == OutlierDisposition::kSaved) ++saved;
  }
  EXPECT_GT(saved, 0u);
}

// ---------------------------------------------------------------------------
// Tree-served bands vs the all-rows reference, differentially
// ---------------------------------------------------------------------------

/// A relation of `n` rows on the integer grid {0, ..., side}^m, where many
/// rows lie at exactly ε and many donors tie in cost at different rows.
/// About one row in 97 holds a ±∞ cell and, with `nan_cells`, one in 89 a
/// NaN cell.
Relation GridRelation(std::size_t n, std::size_t m, int side, bool nan_cells,
                      Rng* rng) {
  Relation r(Schema::Numeric(m));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(m);
    for (std::size_t a = 0; a < m; ++a) {
      t[a] = Value(static_cast<double>(rng->UniformInt(0, side)));
    }
    if (i % 97 == 5) t[i % m] = Value(i % 2 == 0 ? kInf : -kInf);
    if (nan_cells && i % 89 == 7) t[(i / 89) % m] = Value(std::nan(""));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

/// Grid points moved off the grid mass on one to three attributes; one in
/// four also holds a NaN, +∞ or −∞ cell.
std::vector<Tuple> GridOutliers(std::size_t count, std::size_t m, int side,
                                Rng* rng) {
  std::vector<Tuple> outliers;
  for (std::size_t k = 0; k < count; ++k) {
    Tuple t(m);
    for (std::size_t a = 0; a < m; ++a) {
      t[a] = Value(static_cast<double>(rng->UniformInt(0, side)));
    }
    const std::size_t moved = 1 + k % std::min<std::size_t>(3, m);
    for (std::size_t j = 0; j < moved; ++j) {
      const std::size_t a = (k + j * 3) % m;
      const double shift = static_cast<double>(rng->UniformInt(side / 2, side));
      t[a] = Value(t[a].num() + (rng->Bernoulli(0.5) ? shift : -shift));
    }
    const std::size_t a = k % m;
    if (k % 8 == 5) t[a] = Value(std::nan(""));
    if (k % 8 == 6) t[a] = Value(kInf);
    if (k % 8 == 7) t[a] = Value(-kInf);
    outliers.push_back(std::move(t));
  }
  return outliers;
}

/// Keeps every finished decision log (the batch drains on one thread).
struct LogCapture : ExplainSink {
  void Emit(const ExplainSearchLog& log) override { logs.push_back(log); }
  std::vector<ExplainSearchLog> logs;
};

/// The same double, NaN matching NaN.
bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// The first difference between two batches of the same outliers, or ""
/// when every SaveResult field (but trace_id, which names the batch), every
/// SearchStats work counter except the dcache_* pair, and every explain
/// event agree.
std::string FirstDifference(const std::vector<SaveResult>& got,
                            const std::vector<SaveResult>& want,
                            const LogCapture& got_log,
                            const LogCapture& want_log) {
  std::ostringstream diff;
  if (got.size() != want.size()) return "result count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const SaveResult& g = got[i];
    const SaveResult& w = want[i];
    diff << "outlier " << i << ": ";
    bool same_cells = g.adjusted.size() == w.adjusted.size();
    for (std::size_t a = 0; same_cells && a < g.adjusted.size(); ++a) {
      same_cells = SameValue(g.adjusted[a], w.adjusted[a]);
    }
    if (g.feasible != w.feasible || g.termination != w.termination ||
        !same_cells || !SameDouble(g.cost, w.cost) ||
        g.adjusted_attributes.bits() != w.adjusted_attributes.bits() ||
        !SameDouble(g.lower_bound, w.lower_bound) ||
        g.kappa_exceeded != w.kappa_exceeded) {
      diff << "result (cost " << g.cost << " vs " << w.cost << ")";
      return diff.str();
    }
    for (const SearchStatsField& field : kSearchStatsWorkFields) {
      if (std::string(field.name).rfind("dcache_", 0) == 0) continue;
      if (g.stats.*field.member != w.stats.*field.member) {
        diff << field.name << " " << g.stats.*field.member << " vs "
             << w.stats.*field.member;
        return diff.str();
      }
    }
    diff.str("");
  }
  if (got_log.logs.size() != want_log.logs.size()) return "log count";
  for (std::size_t i = 0; i < got_log.logs.size(); ++i) {
    const auto& g = got_log.logs[i].events;
    const auto& w = want_log.logs[i].events;
    if (g.size() != w.size()) {
      diff << "log " << i << ": " << g.size() << " vs " << w.size()
           << " events";
      return diff.str();
    }
    for (std::size_t e = 0; e < g.size(); ++e) {
      if (g[e].action != w[e].action || g[e].x_bits != w[e].x_bits ||
          g[e].seed != w[e].seed || !SameDouble(g[e].lb, w[e].lb) ||
          !SameDouble(g[e].ub, w[e].ub) ||
          !SameDouble(g[e].incumbent, w[e].incumbent) ||
          g[e].donor_row != w[e].donor_row) {
        diff << "log " << i << " event " << e << ": x " << g[e].x_bits
             << " donor " << g[e].donor_row << " vs " << w[e].donor_row
             << ", ub " << g[e].ub << " vs " << w[e].ub;
        return diff.str();
      }
    }
  }
  return "";
}

TEST(TreeBandDifferential, MatchesScalarReferenceOnIntegerGrids) {
  // DiscSaver on the default evaluator (kd-tree, tree-served bands unless a
  // full distance is NaN) against DiscSaver on the scalar reference
  // (brute-force index, all-rows cache) over the same arithmetic: every
  // result, counter and decision must agree at every κ, with pruning on
  // and off, under every norm. L∞ relations also hold NaN cells, which
  // that norm's tree path must carry.
  struct Shape {
    std::size_t m;
    std::size_t n;
    int side;
    std::size_t eta;
  };
  const Shape shapes[] = {{2, 3000, 40, 5}, {3, 2000, 14, 4},
                          {5, 1200, 6, 4}, {8, 600, 3, 3}};
  std::size_t tree_searches = 0;
  std::size_t cache_searches = 0;
  for (const Shape& shape : shapes) {
    for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
      Rng rng(7000 + 10 * shape.m + static_cast<std::uint64_t>(norm));
      const Relation r = GridRelation(shape.n, shape.m, shape.side,
                                      norm == LpNorm::kLInf, &rng);
      const std::vector<Tuple> outliers =
          GridOutliers(24, shape.m, shape.side, &rng);
      const DistanceEvaluator tree_ev(r.schema(), norm);
      const DistanceEvaluator scalar_ev =
          ScalarReferenceEvaluator(r.schema(), norm);
      ASSERT_TRUE(ColumnarView::Eligible(r, tree_ev));
      ASSERT_FALSE(ColumnarView::Eligible(r, scalar_ev));
      const DistanceConstraint constraint{/*epsilon=*/2.0, shape.eta};
      const DiscSaver tree(r, tree_ev, constraint);
      const DiscSaver scalar(r, scalar_ev, constraint);
      for (std::size_t kappa : {0u, 1u, 2u}) {
        for (bool pruning : {true, false}) {
          SaveOptions options;
          options.kappa = kappa;
          options.use_lower_bound_pruning = pruning;
          LogCapture got_log;
          LogCapture want_log;
          const std::vector<SaveResult> got = tree.SaveAll(
              outliers, options, nullptr, {}, nullptr, {}, &got_log);
          const std::vector<SaveResult> want = scalar.SaveAll(
              outliers, options, nullptr, {}, nullptr, {}, &want_log);
          EXPECT_EQ(FirstDifference(got, want, got_log, want_log), "")
              << "m=" << shape.m << " norm=" << static_cast<int>(norm)
              << " kappa=" << kappa << " pruning=" << pruning;
          for (const SaveResult& result : got) {
            const bool cached =
                result.stats.dcache_hits + result.stats.dcache_misses > 0;
            ++(cached ? cache_searches : tree_searches);
          }
        }
      }
    }
  }
  // Both paths ran: the tree served most searches, and NaN verdicts (NaN
  // outlier cells, an infinity against the same infinity) sent the rest to
  // the cache.
  EXPECT_GT(tree_searches, 2 * cache_searches);
  EXPECT_GT(cache_searches, 0u);
}

TEST(TreeBandDifferential, NanVerdictMatchesBruteForce) {
  // Column 0 holds +∞, column 1 −∞, column 2 both, column 3 neither (or a
  // NaN cell); every query cell kind against every column, every norm.
  const double nan = std::nan("");
  for (bool nan_column : {false, true}) {
    Relation r(Schema::Numeric(4));
    r.AppendUnchecked(Tuple::Numeric({1, 2, 3, 4}));
    r.AppendUnchecked(Tuple::Numeric({kInf, 0, 0, 0}));
    r.AppendUnchecked(Tuple::Numeric({0, -kInf, kInf, 0}));
    r.AppendUnchecked(Tuple::Numeric({0, 0, -kInf, nan_column ? nan : 1.0}));
    for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
      const KdTree tree(r, norm);
      const DistanceEvaluator ev(r.schema(), norm);
      for (std::size_t a = 0; a < 4; ++a) {
        for (double cell : {0.5, nan, kInf, -kInf}) {
          Tuple q = Tuple::Numeric({0.5, 0.5, 0.5, 0.5});
          q[a] = Value(cell);
          bool some_nan = false;
          for (std::size_t i = 0; i < r.size(); ++i) {
            some_nan = some_nan || std::isnan(ev.Distance(q, r[i]));
          }
          EXPECT_EQ(tree.SomeDistanceIsNan(q), some_nan)
              << "norm=" << static_cast<int>(norm) << " attr " << a
              << " cell " << cell << " nan_column=" << nan_column;
        }
      }
    }
  }
  // The two infinity cases, spelled out under L2: +∞ against +∞ is NaN,
  // +∞ against −∞ is not.
  Relation r(Schema::Numeric(2));
  r.AppendUnchecked(Tuple::Numeric({kInf, -kInf}));
  const KdTree tree(r, LpNorm::kL2);
  EXPECT_TRUE(tree.SomeDistanceIsNan(Tuple::Numeric({kInf, 0})));
  EXPECT_FALSE(tree.SomeDistanceIsNan(Tuple::Numeric({0, kInf})));
  // An empty tree has no distance at all.
  const KdTree empty(Relation(Schema::Numeric(2)), LpNorm::kL2);
  EXPECT_FALSE(empty.SomeDistanceIsNan(Tuple::Numeric({nan, kInf})));
}

}  // namespace
}  // namespace disc
