#include "index/kth_neighbor_cache.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "index/brute_force_index.h"
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

TEST(KthNeighborCache, NoSelfCountShiftsByOne) {
  Relation r = LineRelation();
  KdTree tree(r);
  KthNeighborCache with_self(r, tree, 2, /*self_counts=*/true);
  KthNeighborCache without_self(r, tree, 1, /*self_counts=*/false);
  // η=2 including self == η=1 excluding self.
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_DOUBLE_EQ(with_self.delta(i), without_self.delta(i));
  }
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

}  // namespace
}  // namespace disc
