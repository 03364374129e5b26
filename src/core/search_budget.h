#ifndef DISC_CORE_SEARCH_BUDGET_H_
#define DISC_CORE_SEARCH_BUDGET_H_

#include <cstddef>
#include <cstdint>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "core/search_stats.h"

namespace disc {

struct ExplainEvent;
struct SearchObserver;

/// Why a per-outlier save ended. The minimum-cost adjustment problem is
/// NP-hard (Theorem 1) and the search is *anytime*: a feasible incumbent
/// (the Proposition-5 splice) exists almost immediately and only improves,
/// so a truncated search still returns a valid — just possibly costlier —
/// adjustment. This enum makes every truncation visible; a budget-capped
/// search is never again indistinguishable from a completed one.
enum class SaveTermination {
  /// The search exhausted its space; the result is its final answer
  /// (feasible adjustment, or a κ-blocked natural outlier).
  kCompleted = 0,
  /// Stopped by SearchBudget::max_visited_sets; incumbent returned.
  kVisitBudget,
  /// Stopped by SearchBudget::max_index_queries; incumbent returned.
  kQueryBudget,
  /// Stopped by an expired Deadline; incumbent returned.
  kDeadline,
  /// Stopped by cooperative cancellation; incumbent returned.
  kCancelled,
  /// The search exhausted its space and proved no feasible adjustment
  /// exists under the constraint.
  kInfeasible,
  /// Stopped by an injected fault (FaultInjector error / allocation-failure
  /// kinds at a search site); incumbent returned. Not journaled, so a
  /// resumed batch searches the outlier again.
  kFault,
};

/// Lower-case identifier for logs/JSON ("completed", "visit_budget", ...).
const char* SaveTerminationName(SaveTermination t);

/// Work caps for one save. Both are optional; the default SearchBudget is
/// unlimited. The wall clock and cancellation are not part of it: each
/// search takes exactly one deadline and one cancellation token from its
/// caller (the batch slice, or the arguments of Save()). The caps are
/// checked at node-expansion granularity (one branch-and-bound node / one
/// exact-enumeration candidate), so a search stops within one node of a
/// limit being hit — and on stop the best incumbent found so far is
/// returned instead of an error (graceful degradation).
struct SearchBudget {
  /// Cap on distinct attribute sets X visited by the branch-and-bound
  /// search, and on the candidates the exact enumeration checks
  /// (0 = unlimited).
  std::size_t max_visited_sets = 0;
  /// Cap on logical neighbor-index queries — kNN/range/feasibility calls
  /// and full-relation bound scans (0 = unlimited).
  std::size_t max_index_queries = 0;
};

/// Whole-batch budget for SaveAll / SaveOutliers. The batch deadline is
/// divided fairly across the not-yet-started outliers (each task computes
/// its slice when it starts, scaled by the worker parallelism); queued work
/// past the deadline or after cancellation is drained-and-skipped — tasks
/// still pop off the thread-pool queue and complete instantly with a
/// skipped record, so shutdown is never blocked.
struct BatchBudget {
  /// Wall clock for the whole batch (infinite by default).
  Deadline deadline;
  /// Cooperative cancellation of the whole batch.
  CancellationToken cancellation;

  /// The deadline of a task starting now while `left` outliers (this one
  /// included) have yet to start on `workers` workers: the fair share
  /// remaining × min(workers, left) ÷ left of the batch clock. A task
  /// finishing under its share leaves the rest to later ones.
  Deadline TaskDeadline(std::size_t workers, std::size_t left) const;
};

/// Per-search enforcement state for one SearchBudget, one deadline and one
/// cancellation token: counts node expansions and index queries, polls the
/// deadline and the token, and records the first stop reason. One gauge per
/// save; never shared across threads.
class BudgetGauge {
 public:
  /// A gauge over `budget` (may be null → unlimited), stopping at
  /// `deadline` or when `cancellation` fires.
  explicit BudgetGauge(const SearchBudget* budget,
                       Deadline deadline = Deadline::Infinite(),
                       CancellationToken cancellation = {});

  /// Called once per node expansion with the running visited-set count.
  /// Hits the `search.node` fault site (when an injector is attached), then
  /// checks fault → cancellation → deadline → visit budget → query budget
  /// (first hit wins). Returns false when the search must stop; the caller
  /// unwinds and returns its incumbent.
  bool OnNodeExpanded(std::size_t visited_sets);

  /// Strided cancellation/deadline poll for long row scans inside the
  /// bound computations: every kScanPollStride-th call hits the
  /// `bounds.scan` fault site and checks cancellation and the deadline.
  /// Returns false when the scan must abandon; the caller then returns a
  /// *safe* value (uninformative lower bound, no upper bound) and the
  /// search unwinds via stopped(). Inline: the band and donor loops call it
  /// once per row.
  bool KeepScanning() {
    if (stopped_) return false;
    if ((++scan_polls_ % kScanPollStride) != 0) return true;
    return Poll(fault_scan_);
  }

  /// Post-search refinement check: refinement may proceed unless a hard
  /// stop (deadline/cancellation) happened or happens now. Soft budget
  /// stops (visited sets, queries) do not block refinement — it is
  /// polynomial and strictly cost-reducing.
  bool ContinueRefinement();

  /// Thread-safe hard-stop probe for *parallel* scan chunks: reads only the
  /// cancellation atomics and the steady clock, touching none of the gauge's
  /// mutable state. Chunk workers poll this; the owning thread then calls
  /// RecordHardStop() after the chunks join to fold the verdict into the
  /// single-threaded stop state.
  bool HardStopRequested() const;

  /// Records a hard stop observed by HardStopRequested() on the owner
  /// thread. Cancellation wins over deadline (same precedence as
  /// KeepScanning). No-op if already stopped.
  void RecordHardStop();

  /// The per-search work counters this gauge owns. The bound scans and
  /// feasibility checks record one logical index query each (the unit
  /// metered by SearchBudget::max_index_queries) plus their typed counts;
  /// wrap an index in StatsNeighborIndex over the same struct to meter raw
  /// index calls with the same budget. Single-threaded by design: one gauge
  /// (and thus one stats struct) per search.
  SearchStats& stats() { return stats_; }
  const SearchStats& stats() const { return stats_; }

  /// Node expansions so far.
  std::size_t nodes_expanded() const {
    return static_cast<std::size_t>(stats_.nodes_expanded);
  }

  /// The observer of this search (core/observation.h), riding on the gauge
  /// because the gauge already reaches every decision site, bound scan,
  /// cache fill and index query. Null (the default) = nothing observes;
  /// owned by the caller, like the budget.
  SearchObserver* observer() const { return observer_; }
  void set_observer(SearchObserver* observer) { observer_ = observer; }

  /// Records one decision of the search (DESIGN.md §14) — the one call per
  /// settled node, seed adoption or revert. Always counts it into stats():
  /// prune_lb and infeasible into lb_prunes, revert_refine into
  /// revert_refines. The observer stores the event when capture is on.
  void RecordDecision(const ExplainEvent& event);

  /// True once any limit tripped; search loops must unwind promptly.
  bool stopped() const { return stopped_; }
  /// The first stop reason (kCompleted while still running).
  SaveTermination reason() const { return reason_; }

 private:
  /// Row-scan polls between deadline/cancellation checks. A steady-clock
  /// read costs ~20 ns; at one check per 64 rows the overhead is invisible
  /// next to the per-row distance evaluation, while a stop is still noticed
  /// within microseconds.
  static constexpr std::size_t kScanPollStride = 64;

  bool Stop(SaveTermination why);
  /// Hits `fault` (when armed), then checks cancellation and the deadline,
  /// in that order; records the first stop and returns false on one.
  bool Poll(FaultInjector::Site* fault);

  const SearchBudget* budget_;  ///< may be null (unlimited)
  Deadline deadline_;
  CancellationToken cancellation_;
  /// Fault sites resolved once at construction (null when no injector is
  /// attached): `search.node` hit per node expansion, `bounds.scan` hit per
  /// strided scan poll.
  FaultInjector::Site* fault_node_ = nullptr;
  FaultInjector::Site* fault_scan_ = nullptr;
  SearchObserver* observer_ = nullptr;
  SearchStats stats_;
  std::size_t scan_polls_ = 0;
  bool stopped_ = false;
  SaveTermination reason_ = SaveTermination::kCompleted;
};

}  // namespace disc

#endif  // DISC_CORE_SEARCH_BUDGET_H_
