#include "index/kth_neighbor_cache.h"

#include <limits>

namespace disc {

KthNeighborCache::KthNeighborCache(const Relation& relation,
                                   const NeighborIndex& index, std::size_t eta)
    : eta_(eta) {
  deltas_.resize(relation.size(),
                 std::numeric_limits<double>::infinity());
  if (eta == 0) {
    for (double& d : deltas_) d = 0;
    return;
  }
  for (std::size_t row = 0; row < relation.size(); ++row) {
    // The query tuple is itself indexed, so it appears in its own result at
    // distance 0; as it counts toward its own neighbor total (Formula 4),
    // the η-th neighbor including self is the η-th element of the kNN
    // result.
    std::vector<Neighbor> nn = index.KNearest(relation[row], eta);
    if (nn.size() >= eta) {
      deltas_[row] = nn[eta - 1].distance;
    }
  }
}

}  // namespace disc
