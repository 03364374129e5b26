#include "index/neighbor_index.h"

#include <algorithm>
#include <cmath>

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

}  // namespace disc
