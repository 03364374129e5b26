#ifndef DISC_INDEX_BRUTE_FORCE_INDEX_H_
#define DISC_INDEX_BRUTE_FORCE_INDEX_H_

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/relation.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Linear-scan neighbor index. Works for any schema (numeric or string
/// attributes) and any metric; O(n·m) per query. The reference
/// implementation the kd-tree is validated against.
///
/// When the relation is all-numeric and every metric is a scaled absolute
/// difference (ColumnarView::Eligible), queries run on the columnar flat
/// kernels — contiguous double arrays, no virtual dispatch, squared-threshold
/// early exit — with bit-identical results to the scalar path.
class BruteForceIndex : public NeighborIndex {
 public:
  /// Indexes `relation`; both references must outlive the index.
  /// `enable_fast_path` exists for tests and benchmarks that need the
  /// scalar reference path on data that would qualify for the columnar one.
  BruteForceIndex(const Relation& relation, const DistanceEvaluator& evaluator,
                  bool enable_fast_path = true)
      : relation_(relation),
        evaluator_(evaluator),
        metrics_(IndexQueryMetrics::For("brute_force")) {
    if (enable_fast_path) columnar_ = ColumnarView::Build(relation, evaluator);
  }

  const char* Name() const override { return "brute_force"; }
  std::size_t size() const override { return relation_.size(); }
  void ForEachWithin(const Tuple& query, double epsilon,
                     NeighborVisitor visit) const override;
  std::size_t CountWithin(const Tuple& query, double epsilon,
                          std::size_t cap = 0) const override;
  std::vector<Neighbor> KNearest(const Tuple& query,
                                 std::size_t k) const override;

  /// The columnar view backing the fast path, or null when the relation is
  /// ineligible (or the fast path was disabled).
  const ColumnarView* columnar_view() const { return columnar_.get(); }

 private:
  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  /// Process-wide raw-traffic counters, resolved at construction from the
  /// global registry; all-null (guarded no-op increments) when detached.
  IndexQueryMetrics metrics_;
  std::unique_ptr<ColumnarView> columnar_;
};

}  // namespace disc

#endif  // DISC_INDEX_BRUTE_FORCE_INDEX_H_
