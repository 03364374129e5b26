#include "clustering/dbscan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/random.h"
#include "data/generators.h"
#include "eval/clustering_metrics.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "index/kth_neighbor_cache.h"

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

/// Every row's ε-neighbourhood over the scalar brute-force index, each
/// sorted by NeighborLess.
std::vector<std::vector<Neighbor>> BruteNeighborhoods(
    const Relation& relation, const DistanceEvaluator& ev, double epsilon) {
  BruteForceIndex index(relation, ev);
  std::vector<std::vector<Neighbor>> out;
  out.reserve(relation.size());
  for (std::size_t row = 0; row < relation.size(); ++row) {
    out.push_back(index.RangeQuery(relation[row], epsilon));
  }
  return out;
}

/// Reference expansion: a FIFO frontier that pushes every
/// unvisited-or-noise neighbour of a core row from a sorted brute-force
/// neighbourhood (duplicates included) and labels a row when it is popped.
/// Dbscan instead takes core flags from capped counts, components from
/// union-find and borders from one visit each; the labels must not differ.
Labels FrontierDbscan(const std::vector<std::vector<Neighbor>>& neighborhoods,
                      std::size_t min_pts) {
  const std::size_t n = neighborhoods.size();
  Labels labels(n, kNoise);
  std::vector<bool> visited(n, false);
  int next_cluster = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (visited[seed]) continue;
    visited[seed] = true;
    const std::vector<Neighbor>& seed_neighbors = neighborhoods[seed];
    if (seed_neighbors.size() < min_pts) continue;
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
      const std::vector<Neighbor>& nn = neighborhoods[p];
      if (nn.size() >= min_pts) {
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

Labels FrontierDbscan(const Relation& relation, const DistanceEvaluator& ev,
                      const DbscanParams& params) {
  return FrontierDbscan(BruteNeighborhoods(relation, ev, params.epsilon),
                        params.min_pts);
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

/// `rows` points on the integer grid [0, side)^dims: three quarters drawn
/// around a few integer centres, the rest uniform, so duplicate points and
/// distances of exactly ε are common. About one row in 40 holds a NaN cell.
Relation GridRelation(std::size_t rows, std::size_t dims, int side,
                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> centres(5, std::vector<double>(dims));
  for (auto& c : centres) {
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, side - 1));
  }
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < rows; ++i) {
    const std::vector<double>& c = centres[rng.NextIndex(centres.size())];
    const bool clustered = rng.Uniform() < 0.75;
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      const double v = clustered ? std::round(rng.Gaussian(c[d], side / 6.0))
                                 : static_cast<double>(
                                       rng.UniformInt(0, side - 1));
      t[d] = Value(std::clamp(v, 0.0, side - 1.0));
    }
    if (rng.NextIndex(40) == 0) {
      t[rng.NextIndex(dims)] = Value(std::numeric_limits<double>::quiet_NaN());
    }
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

TEST(DbscanDifferential, MatchesFrontierExpansionOnIntegerGrids) {
  // ε is taken from the relation's own distances: the median of the rows'
  // 4th-neighbour distances and the next larger one. That is around where
  // the core graph connects, and exactly equal to many pair distances.
  std::size_t configs = 0;
  for (std::uint64_t seed : {11u, 12u}) {
    for (std::size_t dims : {2u, 3u, 6u}) {
      const int side = dims == 2 ? 60 : dims == 3 ? 16 : 6;
      const std::size_t rows = 1000 + 500 * ((seed + dims) % 3);
      const Relation r = GridRelation(rows, dims, side, seed * 10 + dims);
      for (LpNorm norm : {LpNorm::kL1, LpNorm::kL2, LpNorm::kLInf}) {
        const DistanceEvaluator ev(r.schema(), norm);
        const std::unique_ptr<NeighborIndex> tree = MakeNeighborIndex(r, ev);
        ASSERT_STREQ(tree->Name(), "kd_tree");
        std::vector<double> fourth = KthNeighborCache(r, *tree, 4).deltas();
        std::erase_if(fourth, [](double d) { return !std::isfinite(d); });
        std::sort(fourth.begin(), fourth.end());
        const double median = fourth[fourth.size() / 2];
        const auto above =
            std::upper_bound(fourth.begin(), fourth.end(), median);
        ASSERT_NE(above, fourth.end());
        for (double eps : {median, *above}) {
          const auto neighborhoods = BruteNeighborhoods(r, ev, eps);
          for (std::size_t min_pts : {1u, 2u, 3u, 5u}) {
            SCOPED_TRACE(testing::Message()
                         << "seed=" << seed << " dims=" << dims
                         << " rows=" << rows << " norm="
                         << static_cast<int>(norm) << " eps=" << eps
                         << " min_pts=" << min_pts);
            const Labels want = FrontierDbscan(neighborhoods, min_pts);
            ASSERT_EQ(Dbscan(r, ev, {eps, min_pts}), want);
            std::vector<bool> core(r.size());
            for (std::size_t row = 0; row < r.size(); ++row) {
              core[row] = neighborhoods[row].size() >= min_pts;
            }
            ASSERT_EQ(tree->CoreComponents(r, core, eps),
                      tree->NeighborIndex::CoreComponents(r, core, eps));
            ++configs;
          }
        }
      }
    }
  }
  EXPECT_EQ(configs, 144u);
}

}  // namespace
}  // namespace disc
