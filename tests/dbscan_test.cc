#include "clustering/dbscan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "eval/clustering_metrics.h"
#include "index/brute_force_index.h"

namespace disc {
namespace {

LabeledRelation TwoBlobs(std::size_t per_blob = 50, std::uint64_t seed = 3) {
  std::vector<ClusterSpec> clusters;
  clusters.push_back({{0, 0}, 0.5, per_blob});
  clusters.push_back({{10, 0}, 0.5, per_blob});
  return GenerateGaussianMixture(clusters, seed);
}

TEST(Dbscan, RecoversTwoBlobs) {
  LabeledRelation data = TwoBlobs();
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1.5, 4});
  EXPECT_EQ(NumClusters(labels), 2u);
  // Pair F1 vs ground truth should be near-perfect.
  PairCountingScores s = PairCounting(labels, data.labels);
  EXPECT_GT(s.f1, 0.95);
}

TEST(Dbscan, FarPointIsNoise) {
  LabeledRelation data = TwoBlobs();
  data.data.AppendUnchecked(Tuple::Numeric({100, 100}));
  data.labels.push_back(kNoise);
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1.5, 4});
  EXPECT_EQ(labels.back(), kNoise);
}

TEST(Dbscan, TinyEpsilonAllNoise) {
  LabeledRelation data = TwoBlobs();
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1e-6, 4});
  EXPECT_EQ(NumNoise(labels), data.data.size());
}

TEST(Dbscan, HugeEpsilonOneCluster) {
  LabeledRelation data = TwoBlobs();
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1000.0, 4});
  EXPECT_EQ(NumClusters(labels), 1u);
  EXPECT_EQ(NumNoise(labels), 0u);
}

TEST(Dbscan, MinPtsOneClustersEverything) {
  LabeledRelation data = TwoBlobs(20);
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1.5, 1});
  EXPECT_EQ(NumNoise(labels), 0u);
}

TEST(Dbscan, EmptyRelation) {
  Relation r(Schema::Numeric(2));
  DistanceEvaluator ev(r.schema());
  Labels labels = Dbscan(r, ev, {1.0, 3});
  EXPECT_TRUE(labels.empty());
}

TEST(Dbscan, DeterministicAcrossRuns) {
  LabeledRelation data = TwoBlobs();
  DistanceEvaluator ev(data.data.schema());
  Labels a = Dbscan(data.data, ev, {1.5, 4});
  Labels b = Dbscan(data.data, ev, {1.5, 4});
  EXPECT_EQ(a, b);
}

TEST(Dbscan, BridgeMergesClusters) {
  // A dense bridge of points connecting two blobs merges them into one
  // density-connected cluster.
  LabeledRelation data = TwoBlobs();
  for (double x = 1.0; x < 9.5; x += 0.3) {
    data.data.AppendUnchecked(Tuple::Numeric({x, 0}));
    data.labels.push_back(0);
  }
  DistanceEvaluator ev(data.data.schema());
  Labels labels = Dbscan(data.data, ev, {1.0, 3});
  EXPECT_EQ(NumClusters(labels), 1u);
}

TEST(Dbscan, ErrorSplitsClusterWithoutSaving) {
  // The paper's Figure 1 story: spiking one attribute of several tuples in
  // a thin elongated cluster can split it under DBSCAN.
  Relation r(Schema::Numeric(2));
  for (double x = 0; x < 20; x += 0.25) {
    r.AppendUnchecked(Tuple::Numeric({x, 0.0}));
  }
  DistanceEvaluator ev(r.schema());
  Labels before = Dbscan(r, ev, {0.6, 3});
  EXPECT_EQ(NumClusters(before), 1u);
  // Break the chain by spiking a contiguous run of points.
  Relation broken = r;
  for (std::size_t i = 38; i < 42; ++i) broken[i][1] = Value(50.0);
  Labels after = Dbscan(broken, ev, {0.6, 3});
  EXPECT_GE(NumClusters(after), 2u);
}

TEST(Dbscan, NanCellRowJoinsItsClusterUnderLInf) {
  // Regression: under L∞ the NaN term of row 0 drops out, so rows 0–2 are
  // pairwise within ε = 1 and each is a core row at min_pts = 3. The grid
  // index once used here hashed floor(NaN) into one cell and labelled the
  // relation 0, −1, −1, −1.
  Relation r(Schema::Numeric(3));
  r.AppendUnchecked(
      Tuple::Numeric({std::numeric_limits<double>::quiet_NaN(), 0, 0}));
  r.AppendUnchecked(Tuple::Numeric({5, 0.5, 0}));
  r.AppendUnchecked(Tuple::Numeric({5, 0, 0.5}));
  r.AppendUnchecked(Tuple::Numeric({20, 20, 20}));
  DistanceEvaluator ev(r.schema(), LpNorm::kLInf);
  EXPECT_EQ(Dbscan(r, ev, {1.0, 3}), (Labels{0, 0, 0, kNoise}));
}

/// Reference expansion: a FIFO frontier that pushes every
/// unvisited-or-noise neighbour of a core row from a sorted RangeQuery
/// (duplicates included) and labels a row when it is popped, over the
/// scalar brute-force index. Dbscan instead claims each row once from
/// unsorted visits; the labels must not differ.
Labels FrontierDbscan(const Relation& relation, const DistanceEvaluator& ev,
                      const DbscanParams& params) {
  const std::size_t n = relation.size();
  Labels labels(n, kNoise);
  BruteForceIndex index(relation, ev);
  std::vector<bool> visited(n, false);
  int next_cluster = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = true;
    std::vector<Neighbor> seed_neighbors =
        index.RangeQuery(relation[seed], params.epsilon);
    if (seed_neighbors.size() < params.min_pts) continue;
    const int cluster = next_cluster++;
    labels[seed] = cluster;
    std::deque<std::size_t> frontier;
    for (const Neighbor& nb : seed_neighbors) frontier.push_back(nb.row);
    while (!frontier.empty()) {
      std::size_t p = frontier.front();
      frontier.pop_front();
      if (labels[p] == kNoise) labels[p] = cluster;
      if (visited[p]) continue;
      visited[p] = true;
      std::vector<Neighbor> nn = index.RangeQuery(relation[p], params.epsilon);
      if (nn.size() >= params.min_pts) {
        for (const Neighbor& nb : nn) {
          if (!visited[nb.row] || labels[nb.row] == kNoise) {
            frontier.push_back(nb.row);
          }
        }
      }
    }
  }
  return labels;
}

TEST(Dbscan, LabelsMatchFrontierExpansionOnSharedBorders) {
  // Three overlapping blobs plus uniform noise: rows in the overlaps are
  // border rows within ε of core rows of two clusters, which both
  // expansions must give to the lower-numbered cluster.
  std::size_t shared_borders = 0;
  for (std::size_t dims : {2u, 3u, 6u, 8u}) {
    std::vector<ClusterSpec> blobs;
    for (int b = 0; b < 3; ++b) {
      std::vector<double> center(dims, 0.0);
      center[0] = 3.0 * b;
      blobs.push_back({center, 1.0, 70});
    }
    LabeledRelation data = GenerateGaussianMixture(blobs, 40 + dims);
    Rng rng(dims);
    for (int i = 0; i < 20; ++i) {
      Tuple t(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        t[d] = Value(rng.Uniform(-4, 10));
      }
      data.data.AppendUnchecked(std::move(t));
    }
    const Relation& r = data.data;
    for (LpNorm norm : {LpNorm::kL2, LpNorm::kL1, LpNorm::kLInf}) {
      DistanceEvaluator ev(r.schema(), norm);
      BruteForceIndex scalar(r, ev);
      for (double scale : {0.35, 0.6, 0.9}) {
        const double eps =
            scale * (norm == LpNorm::kL1   ? static_cast<double>(dims)
                     : norm == LpNorm::kL2 ? std::sqrt(double(dims))
                                           : 1.0);
        for (std::size_t min_pts : {1u, 4u, 6u}) {
          SCOPED_TRACE(testing::Message()
                       << "dims=" << dims << " norm=" << static_cast<int>(norm)
                       << " eps=" << eps << " min_pts=" << min_pts);
          const DbscanParams params{eps, min_pts};
          const Labels want = FrontierDbscan(r, ev, params);
          ASSERT_EQ(Dbscan(r, ev, params), want);
          for (std::size_t row = 0; row < r.size(); ++row) {
            std::vector<Neighbor> nn = scalar.RangeQuery(r[row], eps);
            if (nn.size() >= min_pts) continue;
            std::set<int> reaching;
            for (const Neighbor& nb : nn) {
              if (scalar.CountWithin(r[nb.row], eps) >= min_pts) {
                reaching.insert(want[nb.row]);
              }
            }
            if (reaching.size() >= 2) ++shared_borders;
          }
        }
      }
    }
  }
  EXPECT_GT(shared_borders, 0u);
}

}  // namespace
}  // namespace disc
