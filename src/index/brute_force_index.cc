#include "index/brute_force_index.h"

namespace disc {

void BruteForceIndex::ForEachWithin(const Tuple& query, double epsilon,
                                    NeighborVisitor visit) const {
  if (metrics_.range_queries != nullptr) metrics_.range_queries->Add();
  for (std::size_t row = 0; row < relation_.size(); ++row) {
    double d = evaluator_.DistanceWithin(query, relation_[row], epsilon);
    if (d <= epsilon) visit(row, d);
  }
}

std::size_t BruteForceIndex::CountWithin(const Tuple& query, double epsilon,
                                         std::size_t cap) const {
  if (metrics_.count_queries != nullptr) metrics_.count_queries->Add();
  std::size_t count = 0;
  for (std::size_t row = 0; row < relation_.size(); ++row) {
    double d = evaluator_.DistanceWithin(query, relation_[row], epsilon);
    if (d <= epsilon) {
      ++count;
      if (cap != 0 && count >= cap) return count;
    }
  }
  return count;
}

std::vector<Neighbor> BruteForceIndex::KNearest(const Tuple& query,
                                                std::size_t k) const {
  // Bounded heap of the k best neighbors seen so far: O(n log k), no
  // n-sized materialization. Once the heap is full, its worst distance
  // becomes the early-exit threshold: a candidate strictly beyond it cannot
  // enter (even the row tie-break needs distance equality, and
  // DistanceWithin's exceed test is strict), so the selected set matches a
  // full sort exactly.
  if (metrics_.knn_queries != nullptr) metrics_.knn_queries->Add();
  if (k == 0) return {};
  NearestHeap heap(k, relation_.size());
  for (std::size_t row = 0; row < relation_.size(); ++row) {
    heap.Offer(row, evaluator_.DistanceWithin(query, relation_[row],
                                              heap.worst()));
  }
  return heap.TakeSorted();
}

}  // namespace disc
