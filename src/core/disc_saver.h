#ifndef DISC_CORE_DISC_SAVER_H_
#define DISC_CORE_DISC_SAVER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/relation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/bounds.h"
#include "core/search_budget.h"
#include "core/search_distance_cache.h"
#include "distance/evaluator.h"
#include "index/kth_neighbor_cache.h"
#include "index/neighbor_index.h"
#include "obs/explain.h"

namespace disc {

class SaveJournalWriter;
struct SaveJournal;
struct SearchObserver;

/// Widest relation the savers support. Adjusted-attribute bookkeeping
/// (ChangedAttributes, the B&B search over attribute sets X) uses
/// AttributeSet bitmasks, so schemas beyond this arity must be rejected with
/// a Status — never silently truncated. Covers every dataset in the paper
/// (max 57 attributes for Spam).
inline constexpr std::size_t kMaxSaveableAttributes = AttributeSet::kCapacity;

/// OK iff a relation of `arity` attributes fits the savers' AttributeSet
/// bookkeeping; InvalidArgument naming the cap otherwise. SaveOutliers
/// checks this before any search; callers of the savers themselves check
/// it first.
Status ValidateSaveArity(std::size_t arity);

/// Knobs for a single Save() call.
struct SaveOptions {
  /// Maximum number of attributes the adjustment may change. 0 means
  /// unrestricted (Algorithm 1 starting from X = ∅, O(2^m · n) worst case).
  /// A positive κ runs the restricted variant of §3.3.3: only X with
  /// |X| >= m − κ are explored, O(m^{κ+1} · n).
  std::size_t kappa = 0;
  /// Lower-bound pruning (Algorithm 1 line 2). Disable only for ablation.
  bool use_lower_bound_pruning = true;
  /// Work caps: visited sets and index queries (both optional). On any
  /// limit — or at the deadline or cancellation Save() takes from its
  /// caller — the best incumbent found so far is returned and
  /// SaveResult::termination records why the search stopped: a truncated
  /// search is never silently passed off as a completed one.
  SearchBudget budget;
  /// Revert refinement: after the bound-guided search, greedily restore
  /// adjusted attributes to their original values while the adjustment
  /// stays feasible (checked exactly, not via the Proposition-5 sufficient
  /// condition). Strictly reduces the cost, so every guarantee of §3.4
  /// still holds; it also concentrates the change onto the genuinely
  /// erroneous attributes (the minimum-change goal of §2.2). Disable only
  /// for ablation.
  bool use_revert_refinement = true;
};

/// Outcome of saving one outlier.
struct SaveResult {
  /// True iff a feasible adjustment was found.
  bool feasible = false;
  /// How the search ended. kCompleted/kInfeasible are definitive answers;
  /// the other values mean the search was truncated (deadline, budget,
  /// cancellation) and `adjusted` is the best — still fully feasible —
  /// incumbent found up to that point (Proposition 5 or better), or the
  /// unmodified input when no incumbent existed yet (`feasible` == false).
  SaveTermination termination = SaveTermination::kCompleted;
  /// The adjusted tuple t_o' (equals the input when infeasible).
  Tuple adjusted;
  /// Adjustment cost Δ(t_o, t_o').
  double cost = 0;
  /// Attributes whose value actually changed.
  AttributeSet adjusted_attributes;
  /// Global lower bound of Lemma 2 (0 when uninformative). Together with
  /// `cost` this certifies the approximation quality of this answer:
  /// cost / max(lower_bound, optimal) bounds the ratio of Proposition 6.
  double lower_bound = 0;
  /// True when no adjustment within the κ attribute budget was found but a
  /// feasible adjustment touching more attributes exists — the signature of
  /// a natural outlier under §1.2's reading.
  bool kappa_exceeded = false;
  /// Full per-search work counters: distinct unadjusted-attribute sets X
  /// explored (`visited_sets`), subtrees cut by the lower-bound rule
  /// (`lb_prunes`), logical neighbor-index queries (`index_queries`, the
  /// unit metered by SearchBudget::max_index_queries), node expansions,
  /// typed bound computations, feasibility checks, cache traffic and wall
  /// time.
  SearchStats stats;
  /// Trace identity of this save when the batch was traced or explained (0
  /// otherwise, including journal-restored results). Derived from the batch
  /// seed and the input ordinal — never from time or scheduling — so it is
  /// excluded from work-parity comparisons the same way wall_nanos is.
  /// Links the result to its span tree, decision log and histogram
  /// exemplars.
  std::uint64_t trace_id = 0;
};

/// Crash-safety controls for one SaveBatch call (DESIGN.md §11): the
/// journal plus resume is the one recovery path. The all-default value is a
/// strict no-op: no journal, no resume.
struct BatchRecovery {
  /// When non-null, every definitively finished outlier (termination
  /// kCompleted or kInfeasible) is appended — and flushed — as it
  /// completes, so a crash loses at most in-flight searches. Faulted,
  /// budget-stopped, deadline-stopped and cancelled results are not
  /// journaled: a resumed run searches them again with a fresh budget,
  /// which is what makes the merged output of crash-then-resume
  /// bit-identical to an uninterrupted run.
  SaveJournalWriter* journal = nullptr;
  /// When non-null, ordinals recorded in the journal restore their results
  /// verbatim and skip their searches (no estimate query, no search span).
  /// The journal must belong to this batch — validate with
  /// SaveJournal::Matches first; entries whose ordinal is out of range are
  /// ignored.
  const SaveJournal* resume = nullptr;
};

/// One outlier's search as a batch runs it: a saver's Save() under the
/// task's `deadline` (its fair slice of the batch clock) and the batch's
/// `cancellation` token, with `nested` serving chunked scans (null =
/// inline) and `observer` receiving the search's decisions and phases
/// (null = nothing observes).
using BatchSearch = std::function<SaveResult(
    const Tuple& outlier, Deadline deadline,
    const CancellationToken& cancellation, WorkStealingPool* nested,
    SearchObserver* observer)>;

/// The batch loop both savers run (DESIGN.md §6): saves each outlier of
/// `outliers` with exactly one independent `save` call and returns the
/// results in input order. Only `save` and `estimate` differ by saver:
/// DiscSaver::SaveAll passes the DISC search, SaveOutliers the exact
/// enumerator (input order, one worker, no journal).
///
/// Scheduling: with a `pool` of more than one worker the searches run
/// concurrently, cost-ordered: `estimate` gives each outlier's search cost
/// up front (required then; unused otherwise), the estimates are sorted
/// descending, and the pool's work-stealing deques start the hardest
/// searches first while idle workers steal the cheap ones from the back.
/// Late stragglers additionally fan their O(n) bound scans out across idle
/// workers (nested parallelism — see BoundsEngine and WorkStealingPool).
///
/// Determinism: the schedule orders only *execution*; every search performs
/// the work of a plain Save() call (the nested chunk merges are
/// bit-identical by construction, and the cost estimates run outside the
/// per-search SearchStats), and results are merged by input order — so the
/// returned vector, including the attached stats (SearchStats::SameWork),
/// is bit-identical for every thread count (including pool == nullptr). The
/// estimate queries do bump the process-wide disc_index_* metrics; that
/// telemetry is the only observable difference between the parallel and
/// sequential paths. `outliers` must stay alive and unmodified until the
/// call returns.
///
/// Batch budget: `batch.deadline` bounds the whole batch. Each task takes
/// a fair slice of the remaining time when it starts
/// (BatchBudget::TaskDeadline) and `batch.cancellation`; these are the
/// search's one deadline and one token. Once the batch deadline passes or
/// the token fires, queued tasks drain-and-skip: they still pop off the
/// pool queue but complete immediately with an untouched tuple and
/// termination kDeadline / kCancelled, so pool shutdown is never blocked.
/// Under an unlimited `batch` every result is bit-identical to a plain
/// Save() call.
///
/// Observability (DESIGN.md §13–§14): a BatchObservation
/// (core/observation.h) owns everything the batch reports: a /statusz
/// tracker ("save_all", or "save_exact" when `exact`), a "search" span per
/// outlier with its phase spans (`trace` sink or global TraceRecorder), its
/// decision log (`explain` sink or global ExplainRecorder;
/// skipped and journal-restored ordinals log nothing) and the disc_sched_*
/// metrics, drained at batch end in a deterministic order. Observers never
/// touch the search: results and logs are bit-identical at every thread
/// count (explain_determinism_test, trace_determinism_test).
///
/// Recovery: with `recovery.journal` each definitive result is made
/// durable as it lands; with `recovery.resume` journaled ordinals are
/// restored instead of searched, and every other ordinal is searched
/// again. See BatchRecovery — the default is a strict no-op.
std::vector<SaveResult> SaveBatch(
    const std::vector<Tuple>& outliers, const BatchSearch& save,
    const std::function<double(const Tuple&)>& estimate, bool exact,
    WorkStealingPool* pool, const BatchBudget& batch, TraceSink* trace,
    const BatchRecovery& recovery, ExplainSink* explain);

/// The DISC approximation (Algorithm 1): branch-and-bound over sets X of
/// unadjusted attributes, keeping the best Proposition-5 upper bound as the
/// incumbent and cutting subtrees whose Proposition-3 lower bound cannot
/// beat it.
///
/// Typical use: build once per (inlier set, constraint), then Save() each
/// outlier — or SaveAll() a batch, optionally across a WorkStealingPool.
///
/// Thread-safety: after construction, Save()/SaveAll() are const and touch
/// only immutable shared state (the inlier relation, evaluator,
/// NeighborIndex, KthNeighborCache and BoundsEngine are all read-only after
/// their constructors) plus a per-call SearchState, so any number of threads
/// may call them concurrently on one DiscSaver.
class DiscSaver {
 public:
  /// `inliers` is the outlier-free set r; all tuples in it are assumed to
  /// satisfy the constraint. The relation and evaluator must outlive the
  /// saver.
  ///
  /// When the inlier relation is eligible (ColumnarView::Eligible:
  /// all-numeric, 1–64 attributes, the unit absolute-difference metric
  /// throughout) the saver's index is a kd-tree, and every search whose
  /// full distances hold no NaN reads its bands from the tree's own
  /// tree-order columns (BandSource). Every other search builds a
  /// per-search SearchDistanceCache on the scalar evaluator. Results are
  /// bit-identical either way. `pool`, when non-null, builds the δ_η cache
  /// (KthNeighborCache), bit-identical for every pool size.
  DiscSaver(const Relation& inliers, const DistanceEvaluator& evaluator,
            DistanceConstraint constraint, WorkStealingPool* pool = nullptr);

  /// Finds a near-optimal adjustment of `outlier` under the constraint.
  /// Anytime: the search stops at `deadline`, when `cancellation` fires, or
  /// when `options.budget` runs out, and returns the best feasible
  /// incumbent found so far (never a partial adjustment), with
  /// SaveResult::termination saying why it stopped. `nested`, when
  /// non-null, serves the chunked bound scans (results bit-identical with
  /// or without it). `observer`, when non-null, rides on the BudgetGauge
  /// through every bound computation and receives the search's decisions
  /// and wall phases (core/observation.h); observing never changes what is
  /// computed.
  SaveResult Save(const Tuple& outlier, const SaveOptions& options = {},
                  Deadline deadline = Deadline::Infinite(),
                  const CancellationToken& cancellation = {},
                  WorkStealingPool* nested = nullptr,
                  SearchObserver* observer = nullptr) const;

  /// Saves a batch of outliers with Save() through SaveBatch, scheduled by
  /// each outlier's η−1-NN distance (how far it sits from the inlier mass
  /// predicts how much bound work the B&B search needs). `options` must
  /// stay alive and unmodified until SaveAll returns.
  std::vector<SaveResult> SaveAll(const std::vector<Tuple>& outliers,
                                  const SaveOptions& options = {},
                                  WorkStealingPool* pool = nullptr,
                                  const BatchBudget& batch = {},
                                  TraceSink* trace = nullptr,
                                  const BatchRecovery& recovery = {},
                                  ExplainSink* explain = nullptr) const;

  /// The bounds engine (exposed for tests and diagnostics).
  const BoundsEngine& bounds() const { return *bounds_; }

 private:
  struct SearchState;
  /// Scheduling cost estimate for one outlier: its η−1-NN distance in r.
  /// Cheap (one kd-tree kNN query), correlates with how much of
  /// the space the B&B search must cover, and runs outside any BudgetGauge
  /// so per-search stats stay schedule-independent.
  double EstimateSearchCost(const Tuple& outlier) const;
  /// Evaluates node X and recurses into its supersets. `parent` is the
  /// band of the node that reached X (null at the search's entry nodes);
  /// `depth` is X's recursion depth, which indexes its band slot.
  void Explore(const Tuple& outlier, AttributeSet x,
               const BoundsEngine::Band* parent, std::size_t depth,
               const SaveOptions& options, SearchState* state) const;
  void RevertRefine(const Tuple& outlier, Tuple* adjusted,
                    BudgetGauge* gauge) const;

  const Relation& inliers_;
  const DistanceEvaluator& evaluator_;
  DistanceConstraint constraint_;
  std::unique_ptr<NeighborIndex> index_;
  std::unique_ptr<KthNeighborCache> cache_;
  std::unique_ptr<BoundsEngine> bounds_;
};

/// Computes which attributes differ between `original` and `adjusted`
/// (by SameValue). Only the first kMaxSaveableAttributes attributes are
/// representable; callers must have rejected wider tuples via
/// ValidateSaveArity.
AttributeSet ChangedAttributes(const Tuple& original, const Tuple& adjusted);

/// True when two cells hold the same value: equal, or both NaN. Value's ==
/// says NaN != NaN, yet a saved tuple can keep the outlier's NaN cell (L∞
/// drops NaN terms), and that cell is unchanged, not adjusted.
bool SameValue(const Value& a, const Value& b);

}  // namespace disc

#endif  // DISC_CORE_DISC_SAVER_H_
