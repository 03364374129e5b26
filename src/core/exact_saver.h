#ifndef DISC_CORE_EXACT_SAVER_H_
#define DISC_CORE_EXACT_SAVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/relation.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// The straightforward exact algorithm of §2.3: enumerate, per attribute,
/// every value occurring in r (plus the outlier's own value), test each
/// combined tuple for feasibility, and return the feasible combination with
/// minimum adjustment cost. O(d^m · n) — tractable only for small m / d,
/// which is exactly the trade-off Figures 6 and 7 chart.
///
/// Partial-cost pruning: a prefix whose accumulated cost already exceeds the
/// incumbent is abandoned, which keeps small instances fast without
/// affecting exactness.
class ExactSaver {
 public:
  /// `inliers` is the outlier-free set r. References must outlive the saver.
  ExactSaver(const Relation& inliers, const DistanceEvaluator& evaluator,
             DistanceConstraint constraint);

  /// Finds the minimum-cost feasible adjustment of `outlier` over the
  /// cross-product of attribute domains. Of `options` it honours `kappa`
  /// and `budget`: budget.max_visited_sets caps the fully evaluated
  /// candidates (kVisitBudget once exceeded), and the search also stops at
  /// `deadline` or when `cancellation` fires, polled between leaves. On any
  /// limit the best candidate so far is returned with the termination
  /// recording why — possibly suboptimal, but still a fully verified
  /// feasible adjustment (or the untouched input).
  ///
  /// The result has the DISC saver's shape. Termination kCompleted means
  /// the full cross-product was covered and the optimum found; kInfeasible
  /// means it was covered and no feasible adjustment exists; any other
  /// value means truncation. κ applies to the optimum as in the DISC
  /// verdict: one that changes more than `options.kappa` attributes (0 =
  /// unrestricted) becomes `kappa_exceeded` and keeps the input tuple.
  /// `stats.nodes_expanded` counts the candidates whose feasibility was
  /// checked; the DISC-only fields (`lower_bound`, `stats.visited_sets`,
  /// `stats.lb_prunes`) stay zero.
  ///
  /// `observer` (core/observation.h), when non-null, receives the
  /// decisions and phases. Feasibility-check index queries are charged to
  /// the index_query wall phase (the enumerator has no bound scans, so that
  /// is its only phased work). The enumerator has no bounds either, so its
  /// decisions are incumbent_update events (x_bits = the candidate's
  /// *changed*-attribute mask, ub = its cost) and a prune_budget event when
  /// the budget layer stops it.
  SaveResult Save(const Tuple& outlier, const SaveOptions& options = {},
                  Deadline deadline = Deadline::Infinite(),
                  const CancellationToken& cancellation = {},
                  SearchObserver* observer = nullptr) const;

 private:
  struct EnumState;
  void Enumerate(const Tuple& outlier, std::size_t attr, Tuple* candidate,
                 double partial_cost_sq, EnumState* state) const;

  const Relation& inliers_;
  const DistanceEvaluator& evaluator_;
  DistanceConstraint constraint_;
  std::unique_ptr<NeighborIndex> index_;
  std::vector<std::vector<Value>> domains_;
};

}  // namespace disc

#endif  // DISC_CORE_EXACT_SAVER_H_
