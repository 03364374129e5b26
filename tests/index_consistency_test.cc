#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

namespace disc {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

Relation RandomRelation(std::size_t n, std::size_t dims, std::uint64_t seed) {
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
  Tuple query(dims);
  for (std::size_t d = 0; d < dims; ++d) query[d] = Value(rng->Uniform(-12, 12));
  return query;
}

/// Rows and distances equal element for element (EXPECT_EQ on doubles: the
/// kd-tree runs BruteForceIndex's kernels, so nothing may differ by even an
/// ulp).
void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].row, want[i].row) << "i=" << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "i=" << i;
  }
}

/// ForEachWithin's hits, sorted into RangeQuery's order.
std::vector<Neighbor> VisitSorted(const NeighborIndex& index,
                                  const Tuple& query, double epsilon) {
  std::vector<Neighbor> out;
  index.ForEachWithin(query, epsilon, [&out](std::size_t row, double d) {
    out.push_back({row, d});
  });
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

struct IndexCase {
  std::size_t n;
  std::size_t dims;
  double epsilon;
};

class IndexConsistencyTest : public testing::TestWithParam<IndexCase> {};

TEST_P(IndexConsistencyTest, KdTreeMatchesBruteForceRange) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 17);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);

  Rng rng(99);
  for (int q = 0; q < 20; ++q) {
    Tuple query = RandomQuery(c.dims, &rng);
    std::vector<Neighbor> expected = brute.RangeQuery(query, c.epsilon);
    ExpectSameNeighbors(tree.RangeQuery(query, c.epsilon), expected);
    ExpectSameNeighbors(VisitSorted(tree, query, c.epsilon), expected);
  }
}

TEST_P(IndexConsistencyTest, KdTreeMatchesBruteForceKnn) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 23);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);

  Rng rng(7);
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{10}}) {
    Tuple query = RandomQuery(c.dims, &rng);
    SCOPED_TRACE(testing::Message() << "k=" << k);
    ExpectSameNeighbors(tree.KNearest(query, k), brute.KNearest(query, k));
  }
}

TEST_P(IndexConsistencyTest, CountWithinMatchesRangeSize) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 41);
  DistanceEvaluator ev(r.schema());
  KdTree tree(r);
  Rng rng(5);
  Tuple query(c.dims);
  for (std::size_t d = 0; d < c.dims; ++d) {
    query[d] = Value(rng.Uniform(-10, 10));
  }
  EXPECT_EQ(tree.CountWithin(query, c.epsilon),
            tree.RangeQuery(query, c.epsilon).size());
}

TEST_P(IndexConsistencyTest, CountWithinCapStopsEarly) {
  IndexCase c = GetParam();
  Relation r = RandomRelation(c.n, c.dims, 43);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  KdTree tree(r);
  Tuple query(c.dims);  // origin
  std::size_t full = brute.CountWithin(query, 50.0);
  ASSERT_GT(full, 3u);
  EXPECT_EQ(brute.CountWithin(query, 50.0, 3), 3u);
  EXPECT_EQ(tree.CountWithin(query, 50.0, 3), 3u);
  EXPECT_EQ(tree.CountWithin(query, 50.0, full + 1), full);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IndexConsistencyTest,
    testing::Values(IndexCase{50, 2, 2.0}, IndexCase{200, 2, 1.0},
                    IndexCase{200, 3, 3.0}, IndexCase{500, 5, 4.0},
                    IndexCase{100, 8, 6.0}, IndexCase{30, 1, 0.5}));

// ---------------------------------------------------------------------------
// NaN and ±inf cells
// ---------------------------------------------------------------------------

/// The 4-row relation {(NaN,0,0), (5,0.5,0), (5,0,0.5), (20,20,20)}. Under
/// L∞ the NaN term drops out of every distance to row 0, so rows 0–2 are
/// all within 1 of each other.
Relation NanTriangle() {
  Relation r(Schema::Numeric(3));
  r.AppendUnchecked(Tuple::Numeric({kNan, 0, 0}));
  r.AppendUnchecked(Tuple::Numeric({5, 0.5, 0}));
  r.AppendUnchecked(Tuple::Numeric({5, 0, 0.5}));
  r.AppendUnchecked(Tuple::Numeric({20, 20, 20}));
  return r;
}

TEST(IndexNanCells, FactoryIndexMatchesBruteForceOnNanRow) {
  // Regression: the uniform grid this factory used to return for m ≤ 4
  // cast floor(NaN) to an integer cell, returned row 0 three times for the
  // query r[0] and missed rows 1 and 2, and missed row 0 for (5,0,0).
  Relation r = NanTriangle();
  DistanceEvaluator ev(r.schema(), LpNorm::kLInf);
  BruteForceIndex scalar(r, ev, /*enable_fast_path=*/false);
  auto index = MakeNeighborIndex(r, ev, 1.0);
  std::vector<Neighbor> want = scalar.RangeQuery(r[0], 1.0);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(want[0].row, 0u);
  EXPECT_EQ(want[1].row, 1u);
  EXPECT_EQ(want[2].row, 2u);
  ExpectSameNeighbors(index->RangeQuery(r[0], 1.0), want);
  const Tuple probe = Tuple::Numeric({5, 0, 0});
  ExpectSameNeighbors(index->RangeQuery(probe, 1.0),
                      scalar.RangeQuery(probe, 1.0));
  EXPECT_EQ(index->CountWithin(probe, 1.0), 3u);
}

/// Uniform cells in [-10, 10], about 6% NaN and 2% each of ±inf.
Relation NonFiniteRelation(std::size_t n, std::size_t dims,
                           std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < n; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double u = rng.Uniform();
      t[d] = Value(u < 0.06   ? kNan
                   : u < 0.08 ? kInf
                   : u < 0.10 ? -kInf
                              : rng.Uniform(-10, 10));
    }
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

class IndexNonFiniteTest
    : public testing::TestWithParam<std::tuple<std::size_t, LpNorm>> {};

TEST_P(IndexNonFiniteTest, KdTreeMatchesScalarBruteForceBitForBit) {
  // A tree of several leaves whose boxes hold NaN and ±inf cells. Queries
  // are the relation's rows with their NaN cells moved far away (under L∞
  // the row stays within ε of itself, so a box that skipped its NaN cell
  // would prune it), random points, points with a NaN coordinate, and
  // points with an infinite one.
  const auto [dims, norm] = GetParam();
  const std::size_t n = 300;  // at least four leaves of at most 64 rows
  const std::size_t eta = 5;
  Relation r = NonFiniteRelation(n, dims, 1000 + dims);
  DistanceEvaluator ev(r.schema(), norm);
  BruteForceIndex scalar(r, ev, /*enable_fast_path=*/false);
  KdTree tree(r, norm);

  Rng rng(31 + dims);
  std::vector<Tuple> queries;
  for (std::size_t i = 0; i < n; i += 7) {
    Tuple q = r[i];
    for (std::size_t d = 0; d < dims; ++d) {
      if (std::isnan(q[d].num())) q[d] = Value(100.0);
    }
    queries.push_back(std::move(q));
  }
  for (int i = 0; i < 10; ++i) {
    queries.push_back(RandomQuery(dims, &rng));
    Tuple with_nan = RandomQuery(dims, &rng);
    with_nan[rng.NextIndex(dims)] = Value(kNan);
    queries.push_back(std::move(with_nan));
    Tuple with_inf = RandomQuery(dims, &rng);
    with_inf[rng.NextIndex(dims)] = Value(i % 2 == 0 ? kInf : -kInf);
    queries.push_back(std::move(with_inf));
  }

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const Tuple& query = queries[qi];
    for (double eps : {0.5, 3.0, 12.0, kInf}) {
      SCOPED_TRACE(testing::Message() << "query=" << qi << " eps=" << eps);
      std::vector<Neighbor> want = scalar.RangeQuery(query, eps);
      ExpectSameNeighbors(tree.RangeQuery(query, eps), want);
      ExpectSameNeighbors(VisitSorted(tree, query, eps), want);
      for (std::size_t cap : {std::size_t{0}, std::size_t{1}, eta}) {
        EXPECT_EQ(tree.CountWithin(query, eps, cap),
                  scalar.CountWithin(query, eps, cap))
            << "cap=" << cap;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DimsAndNorms, IndexNonFiniteTest,
    testing::Combine(testing::Values(std::size_t{2}, std::size_t{3},
                                     std::size_t{8}),
                     testing::Values(LpNorm::kL1, LpNorm::kL2,
                                     LpNorm::kLInf)));

// ---------------------------------------------------------------------------
// Factory and kd-tree edge cases
// ---------------------------------------------------------------------------

TEST(IndexFactory, PicksBruteForceForStrings) {
  Relation r(Schema::StringNamed({"s"}));
  r.AppendUnchecked(Tuple{Value("a")});
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev);
  EXPECT_NE(dynamic_cast<BruteForceIndex*>(index.get()), nullptr);
}

TEST(IndexFactory, PicksKdTreeForLowDim) {
  Relation r = RandomRelation(50, 3, 1);
  DistanceEvaluator ev(r.schema());
  EXPECT_NE(dynamic_cast<KdTree*>(MakeNeighborIndex(r, ev, 2.0).get()),
            nullptr);
  EXPECT_NE(dynamic_cast<KdTree*>(MakeNeighborIndex(r, ev).get()), nullptr);
}

TEST(IndexFactory, PicksKdTreeForHighDim) {
  Relation r = RandomRelation(50, 8, 1);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev, 2.0);
  EXPECT_NE(dynamic_cast<KdTree*>(index.get()), nullptr);
}

TEST(IndexFactory, ForceBruteForce) {
  Relation r = RandomRelation(50, 3, 1);
  DistanceEvaluator ev(r.schema());
  auto index = MakeNeighborIndex(r, ev, 2.0, /*force_brute_force=*/true);
  EXPECT_NE(dynamic_cast<BruteForceIndex*>(index.get()), nullptr);
}

TEST(KdTree, FarAwayQueryTerminatesQuickly) {
  // A query far outside the data is pruned by the root's box: no row is
  // scanned for a range or count query, while kNN still matches brute
  // force and a radius covering everything counts every row.
  MetricsRegistry registry;
  AttachGlobalMetrics(&registry);
  Relation r = RandomRelation(500, 3, 77);
  DistanceEvaluator ev(r.schema());
  KdTree tree(r);
  AttachGlobalMetrics(nullptr);
  BruteForceIndex brute(r, ev);
  Counter* scanned = registry.GetCounter("disc_kernel_rows_scanned_total");
  const std::uint64_t before = scanned->Value();
  Tuple far_query = Tuple::Numeric({4000, -4000, 4000});
  EXPECT_TRUE(tree.RangeQuery(far_query, 100.0).empty());
  EXPECT_EQ(tree.CountWithin(far_query, 100.0, 3), 0u);
  EXPECT_EQ(scanned->Value(), before);
  ExpectSameNeighbors(tree.KNearest(far_query, 5),
                      brute.KNearest(far_query, 5));
  EXPECT_EQ(tree.CountWithin(far_query, 1e5), r.size());
}

TEST(KdTree, EmptyRelation) {
  Relation r(Schema::Numeric(2));
  KdTree tree(r);
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.RangeQuery(Tuple::Numeric({0, 0}), 1.0).empty());
  EXPECT_TRUE(tree.KNearest(Tuple::Numeric({0, 0}), 3).empty());
  EXPECT_EQ(tree.CountWithin(Tuple::Numeric({0, 0}), 1.0), 0u);
}

TEST(KdTree, SelfQueryIncludesSelf) {
  Relation r = RandomRelation(20, 3, 3);
  KdTree tree(r);
  std::vector<Neighbor> nn = tree.KNearest(r[5], 1);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].row, 5u);
  EXPECT_EQ(nn[0].distance, 0.0);
}

TEST(KdTree, ConcurrentQueriesMatchSequential) {
  // DiscSaver shares one index across its workers (DESIGN.md §5). Four
  // threads each run one query kind against the same tree — every query
  // builds its own FlatKernel — and must reproduce the sequential answers.
  Relation r = RandomRelation(3000, 3, 8);
  KdTree tree(r);
  Rng rng(12);
  std::vector<Tuple> queries;
  for (int i = 0; i < 60; ++i) queries.push_back(RandomQuery(3, &rng));
  const double eps = 1.5;
  const std::size_t cap = 6;
  const std::size_t k = 8;

  std::vector<std::vector<Neighbor>> range(queries.size());
  std::vector<std::vector<Neighbor>> visited(queries.size());
  std::vector<std::size_t> counts(queries.size());
  std::vector<std::vector<Neighbor>> knn(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    range[i] = tree.RangeQuery(queries[i], eps);
    visited[i] = VisitSorted(tree, queries[i], eps);
    counts[i] = tree.CountWithin(queries[i], eps, cap);
    knn[i] = tree.KNearest(queries[i], k);
  }

  constexpr int kRounds = 5;
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (tree.RangeQuery(queries[i], eps) != range[i]) ++mismatches[0];
      }
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (VisitSorted(tree, queries[i], eps) != visited[i]) ++mismatches[1];
      }
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (tree.CountWithin(queries[i], eps, cap) != counts[i]) {
          ++mismatches[2];
        }
      }
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (tree.KNearest(queries[i], k) != knn[i]) ++mismatches[3];
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  EXPECT_EQ(visited, range);
}

TEST(BruteForce, RangeResultsSortedByDistance) {
  Relation r = RandomRelation(100, 2, 9);
  DistanceEvaluator ev(r.schema());
  BruteForceIndex brute(r, ev);
  std::vector<Neighbor> nn = brute.RangeQuery(Tuple::Numeric({0, 0}), 8.0);
  for (std::size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].distance, nn[i].distance);
  }
}

}  // namespace
}  // namespace disc
