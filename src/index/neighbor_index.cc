#include "index/neighbor_index.h"

#include <algorithm>
#include <cmath>

#include "common/relation.h"
#include "index/lowest_root_sets.h"

namespace disc {

void NearestHeap::Offer(std::size_t row, double distance) {
  if (std::isnan(distance)) return;
  const Neighbor cand{row, distance};
  if (heap_.size() < k_) {
    heap_.push_back(cand);
    std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
  } else if (k_ > 0 && NeighborLess(cand, heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), NeighborLess);
    heap_.back() = cand;
    std::push_heap(heap_.begin(), heap_.end(), NeighborLess);
  }
}

std::vector<Neighbor> NearestHeap::TakeSorted() {
  std::sort(heap_.begin(), heap_.end(), NeighborLess);
  return std::move(heap_);
}

std::vector<Neighbor> NeighborIndex::RangeQuery(const Tuple& query,
                                                double epsilon) const {
  std::vector<Neighbor> out;
  ForEachWithin(query, epsilon, [&out](std::size_t row, double distance) {
    out.push_back({row, distance});
  });
  std::sort(out.begin(), out.end(), NeighborLess);
  return out;
}

std::vector<std::size_t> NeighborIndex::CoreComponents(
    const Relation& relation, const std::vector<bool>& core,
    double epsilon) const {
  LowestRootSets sets(size());
  for (std::size_t row = 0; row < size(); ++row) {
    if (!core[row]) continue;
    ForEachWithin(relation[row], epsilon,
                  [&](std::size_t hit, double /*distance*/) {
                    if (core[hit]) sets.Union(row, hit);
                  });
  }
  return sets.Roots();
}

}  // namespace disc
