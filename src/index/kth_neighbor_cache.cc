#include "index/kth_neighbor_cache.h"

#include <limits>

#include "common/thread_pool.h"

namespace disc {

namespace {

/// Rows per ParallelFor chunk: a fixed grain, so chunk boundaries never
/// depend on the pool size. An η-NN query costs microseconds, so a chunk
/// costs far more than the pool spends handing it out.
constexpr std::size_t kRowsPerChunk = 256;

}  // namespace

KthNeighborCache::KthNeighborCache(const Relation& relation,
                                   const NeighborIndex& index, std::size_t eta,
                                   WorkStealingPool* pool)
    : eta_(eta) {
  deltas_.resize(relation.size(),
                 std::numeric_limits<double>::infinity());
  if (eta == 0) {
    for (double& d : deltas_) d = 0;
    return;
  }
  auto fill = [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
    for (std::size_t row = begin; row < end; ++row) {
      // The query tuple is itself indexed, so it appears in its own result
      // at distance 0; as it counts toward its own neighbor total (Formula
      // 4), the η-th neighbor including self is the η-th element of the kNN
      // result.
      std::vector<Neighbor> nn = index.KNearest(relation[row], eta);
      if (nn.size() >= eta) {
        deltas_[row] = nn[eta - 1].distance;
      }
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, relation.size(), kRowsPerChunk, fill);
  } else {
    fill(0, relation.size(), 0);
  }
}

}  // namespace disc
