#ifndef DISC_INDEX_BRUTE_FORCE_INDEX_H_
#define DISC_INDEX_BRUTE_FORCE_INDEX_H_

#include <vector>

#include "common/metrics.h"
#include "common/relation.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Linear-scan neighbor index over the scalar DistanceEvaluator. Works for
/// any schema (numeric or string attributes) and any metric; O(n·m) per
/// query. It is the scalar reference the columnar kernels and the kd-tree
/// are validated against, and MakeNeighborIndex returns it for every
/// relation the kd-tree does not serve (ColumnarView::Eligible is false).
class BruteForceIndex : public NeighborIndex {
 public:
  /// Indexes `relation`; both references must outlive the index.
  BruteForceIndex(const Relation& relation, const DistanceEvaluator& evaluator)
      : relation_(relation),
        evaluator_(evaluator),
        metrics_(IndexQueryMetrics::For("brute_force")) {}

  const char* Name() const override { return "brute_force"; }
  std::size_t size() const override { return relation_.size(); }
  void ForEachWithin(const Tuple& query, double epsilon,
                     NeighborVisitor visit) const override;
  std::size_t CountWithin(const Tuple& query, double epsilon,
                          std::size_t cap = 0) const override;
  std::vector<Neighbor> KNearest(const Tuple& query,
                                 std::size_t k) const override;

 private:
  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  /// Process-wide raw-traffic counters, resolved at construction from the
  /// global registry; all-null (guarded no-op increments) when detached.
  IndexQueryMetrics metrics_;
};

}  // namespace disc

#endif  // DISC_INDEX_BRUTE_FORCE_INDEX_H_
