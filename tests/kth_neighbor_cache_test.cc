#include "index/kth_neighbor_cache.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

namespace disc {
namespace {

Relation LineRelation() {
  // Points at 0, 1, 2, ..., 9 on a line.
  Relation r(Schema::Numeric(1));
  for (int i = 0; i < 10; ++i) r.AppendUnchecked(Tuple::Numeric({double(i)}));
  return r;
}

TEST(KthNeighborCache, EtaOneIsSelf) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache cache(r, tree, 1);
  // With self counting, the 1st neighbor of any tuple is itself: δ = 0.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(cache.delta(i), 0.0);
  }
}

TEST(KthNeighborCache, EtaTwoIsNearestOther) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache cache(r, tree, 2);
  // δ_2 = distance to the nearest other tuple = 1 for all points here.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(cache.delta(i), 1.0) << "row " << i;
  }
}

TEST(KthNeighborCache, EtaThreeOnLine) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache cache(r, tree, 3);
  // Interior points have two neighbors at distance 1, so δ_3 = 1;
  // endpoints must reach distance 2.
  EXPECT_DOUBLE_EQ(cache.delta(0), 2.0);
  EXPECT_DOUBLE_EQ(cache.delta(9), 2.0);
  EXPECT_DOUBLE_EQ(cache.delta(5), 1.0);
}

TEST(KthNeighborCache, EtaLargerThanNIsInfinite) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache cache(r, tree, 100);
  EXPECT_TRUE(std::isinf(cache.delta(0)));
}

TEST(KthNeighborCache, EtaZeroIsZero) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache cache(r, tree, 0);
  EXPECT_DOUBLE_EQ(cache.delta(3), 0.0);
}

TEST(KthNeighborCache, DeltaIsMonotoneInEta) {
  Rng rng(3);
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 60; ++i) {
    r.AppendUnchecked(Tuple::Numeric({rng.Uniform(0, 10), rng.Uniform(0, 10)}));
  }
  KdTree tree(r);
  KthNeighborCache c2(r, tree, 2);
  KthNeighborCache c5(r, tree, 5);
  KthNeighborCache c9(r, tree, 9);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_LE(c2.delta(i), c5.delta(i));
    EXPECT_LE(c5.delta(i), c9.delta(i));
  }
}

TEST(KthNeighborCache, ConsistentAcrossIndexes) {
  Rng rng(5);
  Relation r(Schema::Numeric(3));
  for (int i = 0; i < 40; ++i) {
    r.AppendUnchecked(Tuple::Numeric(
        {rng.Uniform(0, 5), rng.Uniform(0, 5), rng.Uniform(0, 5)}));
  }
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);
  KthNeighborCache a(r, brute, 4);
  KthNeighborCache b(r, tree, 4);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(a.delta(i), b.delta(i)) << "row " << i;
  }
}

/// Five 3-D blobs of `rows` rows in all, every 10th row shifted off its
/// blob on one attribute, and every 23rd row holding a NaN cell.
Relation BlobsWithNanRows(std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(3));
  for (std::size_t i = 0; i < rows; ++i) {
    const double centre = 8.0 * static_cast<double>(i % 5);
    Tuple t = Tuple::Numeric({rng.Gaussian(centre, 0.7),
                              rng.Gaussian(0, 0.7), rng.Gaussian(0, 0.7)});
    if (i % 10 == 3) t[1] = Value(rng.Uniform(5, 9));
    if (i % 23 == 5) t[2] = Value(std::numeric_limits<double>::quiet_NaN());
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

TEST(KthNeighborCache, PooledBuildIsBitIdenticalForEveryPoolSize) {
  // 1,300 rows span six chunks; the NaN rows have no neighbour under L2
  // (δ = ∞) and neighbours on their other attributes under L∞.
  const Relation r = BlobsWithNanRows(1300, 17);
  for (LpNorm norm : {LpNorm::kL2, LpNorm::kLInf}) {
    const KdTree tree(r, norm);
    const KthNeighborCache serial(r, tree, 5);
    for (std::size_t workers : {1u, 2u, 4u}) {
      WorkStealingPool pool(workers);
      const KthNeighborCache pooled(r, tree, 5, &pool);
      ASSERT_EQ(pooled.deltas().size(), r.size());
      for (std::size_t row = 0; row < r.size(); ++row) {
        EXPECT_EQ(pooled.delta(row), serial.delta(row))
            << "row " << row << " workers " << workers;
      }
    }
  }
}

TEST(KthNeighborCache, SaverWithPooledCacheSavesIdentically) {
  const Relation data = BlobsWithNanRows(1300, 29);
  const DistanceEvaluator evaluator(data.schema());
  const DistanceConstraint constraint{1.2, 5};
  const std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  const InlierOutlierSplit split =
      SplitInliersOutliers(data, *index, constraint);
  const Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);
  ASSERT_GT(inliers.size(), 512u);
  ASSERT_GT(outliers.size(), 20u);

  const DiscSaver serial(inliers, evaluator, constraint);
  WorkStealingPool pool(4);
  const DiscSaver pooled(inliers, evaluator, constraint, &pool);
  const std::vector<SaveResult> a = serial.SaveAll(outliers);
  const std::vector<SaveResult> b = pooled.SaveAll(outliers, {}, &pool);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "outlier " << i;
    // NaN-aware: an unsaved outlier keeps its NaN cell.
    EXPECT_TRUE(ChangedAttributes(a[i].adjusted, b[i].adjusted).empty())
        << "outlier " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "outlier " << i;
    EXPECT_EQ(a[i].lower_bound, b[i].lower_bound) << "outlier " << i;
    EXPECT_EQ(a[i].termination, b[i].termination) << "outlier " << i;
    EXPECT_TRUE(a[i].stats.SameWork(b[i].stats)) << "outlier " << i;
  }
}

}  // namespace
}  // namespace disc
