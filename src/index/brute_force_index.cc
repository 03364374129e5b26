#include "index/brute_force_index.h"

namespace disc {

namespace {

/// Kernel hit sink forwarding to a NeighborVisitor (the ctx).
bool VisitHit(void* ctx, std::size_t row, double distance) {
  (*static_cast<const NeighborVisitor*>(ctx))(row, distance);
  return true;
}

}  // namespace

void BruteForceIndex::ForEachWithin(const Tuple& query, double epsilon,
                                    NeighborVisitor visit) const {
  if (metrics_.range_queries != nullptr) metrics_.range_queries->Add();
  if (columnar_ != nullptr) {
    // Batch scan: the row loop lives inside the kernel (one tight loop per
    // norm), with per-row verdicts identical to the scalar path below.
    FlatKernel kernel(*columnar_, query);
    simd::ScanDelta delta;
    kernel.VisitWithin(epsilon, 0, columnar_->rows(), &VisitHit, &visit,
                       &delta);
    columnar_->FlushScan(delta);
    return;
  }
  for (std::size_t row = 0; row < relation_.size(); ++row) {
    double d = evaluator_.DistanceWithin(query, relation_[row], epsilon);
    if (d <= epsilon) visit(row, d);
  }
}

std::size_t BruteForceIndex::CountWithin(const Tuple& query, double epsilon,
                                         std::size_t cap) const {
  if (metrics_.count_queries != nullptr) metrics_.count_queries->Add();
  std::size_t count = 0;
  if (columnar_ != nullptr) {
    FlatKernel kernel(*columnar_, query);
    // The batch count scans every row, so it only applies to uncapped
    // queries; a cap means the caller wants to stop counting early.
    if (cap == 0) return kernel.CountWithin(epsilon);
    for (std::size_t row = 0; row < relation_.size(); ++row) {
      if (kernel.DistanceWithin(row, epsilon) <= epsilon) {
        ++count;
        if (count >= cap) return count;
      }
    }
    return count;
  }
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
  if (columnar_ != nullptr) {
    FlatKernel kernel(*columnar_, query);
    for (std::size_t row = 0; row < relation_.size(); ++row) {
      heap.Offer(row, kernel.DistanceWithin(row, heap.worst()));
    }
  } else {
    for (std::size_t row = 0; row < relation_.size(); ++row) {
      heap.Offer(row, evaluator_.DistanceWithin(query, relation_[row],
                                                heap.worst()));
    }
  }
  return heap.TakeSorted();
}

}  // namespace disc
