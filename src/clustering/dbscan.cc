#include "clustering/dbscan.h"

#include <memory>
#include <vector>

#include "index/index_factory.h"

namespace disc {

Labels Dbscan(const Relation& relation, const DistanceEvaluator& evaluator,
              const DbscanParams& params) {
  const std::size_t n = relation.size();
  Labels labels(n, kNoise);
  if (n == 0) return labels;

  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(relation, evaluator, params.epsilon);

  // The labels are a function of three things (dbscan.h), computed here
  // one after the other. 1. The core flags: a count capped at min_pts
  // gives the same verdict as a full count (min_pts = 0 counts all rows).
  std::vector<bool> core(n);
  for (std::size_t row = 0; row < n; ++row) {
    core[row] = index->CountWithin(relation[row], params.epsilon,
                                   params.min_pts) >= params.min_pts;
  }
  // 2. The components of the core ε-graph, numbered by their lowest core
  // row: a core row that is its component's lowest opens the next cluster,
  // and a later one joins it.
  const std::vector<std::size_t> lowest =
      index->CoreComponents(relation, core, params.epsilon);
  int next_cluster = 0;
  for (std::size_t row = 0; row < n; ++row) {
    if (core[row]) {
      labels[row] = lowest[row] == row ? next_cluster++ : labels[lowest[row]];
    }
  }
  // 3. Each non-core row joins the lowest-numbered cluster with a core row
  // within ε of it, or stays noise. The ε-relation is symmetric, so that is
  // the cluster of the lowest-labelled core row among its own hits.
  for (std::size_t row = 0; row < n; ++row) {
    if (core[row]) continue;
    int cluster = kNoise;
    index->ForEachWithin(relation[row], params.epsilon,
                         [&](std::size_t hit, double /*distance*/) {
                           if (!core[hit]) return;
                           if (cluster == kNoise || labels[hit] < cluster) {
                             cluster = labels[hit];
                           }
                         });
    labels[row] = cluster;
  }
  return labels;
}

}  // namespace disc
