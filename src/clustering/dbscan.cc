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

  // Each row's ε-neighbourhood is visited at most once (`queried`). A row
  // is claimed — labelled, for good — by the first cluster with a core row
  // within ε of it, and queued then if its own neighbourhood is still
  // unvisited, so every row is queued at most once. A cluster therefore
  // holds its density-connected core rows plus every row still unclaimed
  // within ε of one of them, a set no expansion order changes; seeds run
  // in row order, so clusters are numbered by their first core row.
  std::vector<bool> queried(n, false);
  std::vector<std::size_t> unclaimed;  // the last visit's unclaimed hits
  std::vector<std::size_t> queue;
  // Visits p's neighbourhood; true when p is a core row, with its still
  // unclaimed neighbours in `unclaimed`.
  auto visit_core = [&](std::size_t p) {
    queried[p] = true;
    unclaimed.clear();
    std::size_t count = 0;
    index->ForEachWithin(relation[p], params.epsilon,
                         [&](std::size_t row, double /*distance*/) {
                           ++count;
                           if (labels[row] == kNoise) unclaimed.push_back(row);
                         });
    return count >= params.min_pts;
  };
  auto claim = [&](int cluster) {
    for (std::size_t row : unclaimed) {
      if (labels[row] != kNoise) continue;
      labels[row] = cluster;
      if (!queried[row]) queue.push_back(row);
    }
  };

  int next_cluster = 0;
  for (std::size_t seed = 0; seed < n; ++seed) {
    // A claimed row was queued when claimed, so it has been visited too.
    if (queried[seed] || !visit_core(seed)) continue;
    const int cluster = next_cluster++;
    labels[seed] = cluster;
    queue.clear();
    claim(cluster);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      if (visit_core(queue[head])) claim(cluster);
    }
  }
  return labels;
}

}  // namespace disc
