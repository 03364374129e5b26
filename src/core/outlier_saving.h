#ifndef DISC_CORE_OUTLIER_SAVING_H_
#define DISC_CORE_OUTLIER_SAVING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/relation.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "core/exact_saver.h"
#include "core/search_budget.h"
#include "distance/evaluator.h"

namespace disc {

class ExplainSink;
class MetricsRegistry;
class TraceSink;

/// Dataset-level outlier-saving options (paper §2.2 / §1.2).
struct OutlierSavingOptions {
  /// The distance constraint (ε, η).
  DistanceConstraint constraint;
  /// Per-outlier search options (κ restriction, pruning, budget).
  SaveOptions save;
  /// Natural-outlier guard: an outlier whose best adjustment changes more
  /// than this many attributes is deemed a natural outlier and left
  /// unchanged (0 = disabled). Errors are expected to touch only a few
  /// attributes (§1.2); natural outliers are separable in many.
  std::size_t natural_attribute_threshold = 0;
  /// Columnar backing of the DISC search's per-search distance cache (see
  /// DESIGN.md, "Two-tier distance architecture"). Engages only when the
  /// data qualifies (all-numeric schema, scaled-absolute-difference
  /// metrics); results are bit-identical either way, so disabling exists
  /// only for reference comparisons and ablation.
  bool use_columnar_fast_path = true;
  /// Use the exact enumeration algorithm instead of the DISC approximation
  /// (only tractable for small m and small attribute domains).
  bool use_exact = false;
  /// Candidate budget for the exact algorithm (0 = unlimited).
  std::size_t exact_max_candidates = 0;
  /// Worker threads for batch saving (DISC path only; the exact saver stays
  /// sequential). 1 = in-caller sequential saving, 0 = one worker per
  /// hardware thread. Results are bit-identical for every value — see
  /// DiscSaver::SaveAll.
  std::size_t num_threads = 1;
  /// Wall-clock budget for the whole pipeline in milliseconds, measured
  /// from SaveOutliers entry (it therefore also covers the index build and
  /// inlier/outlier split). 0 = unlimited. When the budget runs out the
  /// remaining searches degrade gracefully: each outlier still gets a
  /// record, carrying the best feasible incumbent found within its fair
  /// share of the time (see DiscSaver::SaveAll) or the untouched tuple,
  /// with OutlierRecord::termination saying what happened. The overall
  /// status stays OK — degradation is reported, not failed.
  std::int64_t batch_deadline_ms = 0;
  /// Per-outlier wall-clock cap in milliseconds (0 = unlimited),
  /// intersected with the fair batch share.
  std::int64_t per_outlier_deadline_ms = 0;
  /// Cooperative cancellation for the whole pipeline. Fires between index
  /// scans and node expansions; already-running searches return their
  /// incumbent, queued ones drain-and-skip.
  CancellationToken cancellation;
  /// Optional metrics registry (null = metrics disabled, the default).
  /// Counters are flushed once per batch from the already-merged per-search
  /// stats — attaching a registry adds no work to the search hot paths. The
  /// registry must outlive the call. See DESIGN.md §8 for the metric names.
  MetricsRegistry* metrics = nullptr;
  /// Optional trace sink (null = tracing disabled, the default). Receives
  /// one "split" span plus one "save_outlier" span per outlier, emitted
  /// from the sequential merge loop in input order, each carrying the full
  /// SearchStats as attributes. Must outlive the call.
  TraceSink* trace = nullptr;
  /// Optional explain sink (null = explain disabled, the default). Receives
  /// one decision log per searched outlier (obs/explain.h) in input order —
  /// which bounds pruned which subtrees, how the incumbent evolved, how
  /// tight the bounds ran. A globally attached ExplainRecorder
  /// (AttachGlobalExplainRecorder) captures the same logs for /explainz
  /// without a sink. Must outlive the call. See DESIGN.md §14.
  ExplainSink* explain = nullptr;
  /// Path of a SaveJournal to append definitive per-outlier results to
  /// (empty = no journaling, the default). DISC path only. With a journal
  /// the pipeline becomes crash-safe: re-running with
  /// `resume_from_journal` restores journaled verdicts instead of
  /// re-searching them, and the merged result is bit-identical to an
  /// uninterrupted run. See DESIGN.md §11.
  std::string journal_path;
  /// Resume from `journal_path` if it exists and matches this batch
  /// (same outlier count, arity, ε, η, κ — anything else is a
  /// FailedPrecondition error). A missing journal file simply starts
  /// fresh.
  bool resume_from_journal = false;
  /// Retry policy for transiently-failed searches (kFault terminations;
  /// also re-runs budget-truncated searches when deadline slack remains).
  /// Default = disabled. DISC path only.
  RetryPolicy retry;
};

/// Why an outlier ended up saved or not.
enum class OutlierDisposition {
  kSaved,           ///< feasible adjustment applied
  kNaturalOutlier,  ///< feasible but too many attributes — left unchanged
  kInfeasible,      ///< no feasible adjustment exists / was found
};

/// Lower-case identifier for logs/JSON/metrics ("saved", "natural_outlier",
/// "infeasible").
const char* OutlierDispositionName(OutlierDisposition d);

/// Per-outlier record of what happened.
struct OutlierRecord {
  std::size_t row = 0;  ///< row in the original relation
  OutlierDisposition disposition = OutlierDisposition::kInfeasible;
  /// How this outlier's search ended. kCompleted/kInfeasible are definitive
  /// verdicts; kDeadline/kCancelled/kVisitBudget/kQueryBudget mean the
  /// search was truncated and the record holds the best anytime answer —
  /// when `disposition` is kSaved the adjustment is still fully feasible,
  /// it just may not be the cheapest one a full search would find.
  SaveTermination termination = SaveTermination::kCompleted;
  Tuple adjusted;
  double cost = 0;
  AttributeSet adjusted_attributes;
  double lower_bound = 0;
  /// Logical neighbor-index queries this outlier's search spent.
  std::size_t index_queries = 0;
  /// Full per-search work counters (`index_queries` above always equals
  /// `stats.index_queries`). Bit-identical across thread counts except for
  /// the timing fields — see SearchStats::SameWork.
  SearchStats stats;
  /// Trace id of this outlier's span tree (0 when tracing was off, the
  /// record was restored from a journal, or the exact path ran). Links the
  /// record to its spans in the trace sink, the /tracez ring, and the
  /// wall-time histogram exemplars. Excluded from work parity.
  std::uint64_t trace_id = 0;
};

/// Result of saving all outliers of a dataset.
struct SavedDataset {
  /// OK unless the pipeline rejected its input (e.g. a schema wider than
  /// kMaxSaveableAttributes). On error `repaired` is the unmodified input
  /// and no records are produced. Deadline/budget degradation does NOT make
  /// this non-OK — check degraded() / DegradationStatus() for that.
  Status status;
  /// The full dataset with saved outliers' values adjusted in place.
  Relation repaired;
  /// Rows that violated the constraint (the outlier set s).
  std::vector<std::size_t> outlier_rows;
  /// Rows that satisfied the constraint (the inlier set r).
  std::vector<std::size_t> inlier_rows;
  /// One record per outlier row, in the same order as `outlier_rows`.
  std::vector<OutlierRecord> records;
  /// Neighbor-index queries spent on the inlier/outlier split phase
  /// (always equals `split_stats.index_queries`).
  std::size_t split_index_queries = 0;
  /// Work counters of the split phase (index traffic plus wall time).
  SearchStats split_stats;

  /// Aggregate work of the whole pipeline: `split_stats` plus every
  /// record's per-search stats, merged in input order (deterministic, and
  /// identical across thread counts up to the timing fields).
  SearchStats stats() const;

  /// Number of records with the given disposition.
  std::size_t CountDisposition(OutlierDisposition d) const;
  /// Number of records with the given termination reason.
  std::size_t CountTermination(SaveTermination t) const;
  /// True when at least one search was truncated (any termination other
  /// than kCompleted / kInfeasible).
  bool degraded() const;
  /// OK when nothing degraded; otherwise the most severe truncation as a
  /// Status — Cancelled over DeadlineExceeded over ResourceExhausted — with
  /// a message tallying the affected records. Advisory: the dataset in
  /// `repaired` is valid either way.
  Status DegradationStatus() const;
  /// Mean adjustment cost over saved outliers (0 when none).
  double MeanAdjustmentCost() const;
  /// Mean number of adjusted attributes over saved outliers (0 when none).
  double MeanAdjustedAttributes() const;
};

/// The end-to-end DISC pipeline of §2.2: split `data` into inliers r and
/// outliers s under the constraint, then save each outlier against r
/// (Algorithm 1, or the exact algorithm when `use_exact`). Outliers are
/// saved independently — each is adjusted w.r.t. the fixed inlier set, so
/// the order of processing does not matter; with `num_threads` > 1 the
/// per-outlier searches run on a WorkStealingPool with bit-identical
/// results.
/// Check `SavedDataset::status` first: a schema wider than
/// kMaxSaveableAttributes is rejected rather than silently truncated.
///
/// Anytime contract: with `batch_deadline_ms` / `per_outlier_deadline_ms` /
/// `cancellation` set, the call still returns a complete SavedDataset —
/// every outlier row gets a record, every applied adjustment is fully
/// feasible (≥ η ε-neighbors), and truncated searches are marked via
/// OutlierRecord::termination. See DESIGN.md, "Anytime saving &
/// degradation contract".
SavedDataset SaveOutliers(const Relation& data,
                          const DistanceEvaluator& evaluator,
                          const OutlierSavingOptions& options);

}  // namespace disc

#endif  // DISC_CORE_OUTLIER_SAVING_H_
