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
#include "core/search_budget.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Knobs for ExactSaver.
struct ExactOptions {
  /// Execution budget. The exact enumerator checks it once per fully
  /// evaluated candidate, so budget.max_visited_sets caps the candidates
  /// (kVisitBudget once exceeded); deadline and cancellation additionally
  /// interrupt long enumerations between leaves. On any limit the best
  /// candidate so far is returned with the termination recording why — the
  /// result may then be suboptimal, but it is still a fully verified
  /// feasible adjustment (or the untouched input).
  SearchBudget budget;
  /// Optional observer (core/observation.h). Feasibility-check index
  /// queries are charged to the index_query wall phase (the enumerator has
  /// no bound scans, so that is its only phased work). The enumerator has
  /// no bounds either, so its decisions are incumbent_update events (x_bits
  /// = the candidate's *changed*-attribute mask, ub = its cost) and a
  /// prune_budget event when the budget layer stops it. Not owned.
  SearchObserver* observer = nullptr;
};

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
  /// cross-product of attribute domains. `extra_deadline` and
  /// `extra_cancellation` are intersected with options.budget — batch
  /// drivers use them to impose per-task slices without mutating the shared
  /// options (see BatchBudget::TaskDeadline for the slicing policy).
  ///
  /// The result has the DISC saver's shape. Termination kCompleted means
  /// the full cross-product was covered and `adjusted` is optimal;
  /// kInfeasible means it was covered and no feasible adjustment exists;
  /// any other value means truncation (candidate cap, deadline,
  /// cancellation) and `adjusted` is the best fully verified candidate so
  /// far, or the unmodified input. `stats.nodes_expanded` counts the
  /// candidates whose feasibility was checked; the DISC-only fields
  /// (`lower_bound`, `stats.visited_sets`, `stats.lb_prunes`,
  /// `kappa_exceeded`) stay zero. (SaveOutliers applies κ to the result
  /// afterwards — see OutlierSavingOptions::save.)
  SaveResult Save(const Tuple& outlier, const ExactOptions& options = {},
                  Deadline extra_deadline = Deadline::Infinite(),
                  const CancellationToken& extra_cancellation =
                      CancellationToken()) const;

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
