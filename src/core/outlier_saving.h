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

class MetricsRegistry;

/// Dataset-level outlier-saving options (paper §2.2 / §1.2).
struct OutlierSavingOptions {
  /// The distance constraint (ε, η).
  DistanceConstraint constraint;
  /// Per-outlier search options (pruning, budget, and κ), passed to either
  /// saver. `save.kappa` is the one attribute budget of the pipeline: an
  /// outlier whose only feasible adjustments change more than κ attributes
  /// is deemed a natural outlier and left unchanged (0 = unrestricted).
  /// Errors are expected to touch only a few attributes (§1.2); natural
  /// outliers are separable in many. The DISC search optimizes within the
  /// budget (§3.3.3); the exact saver keeps its unrestricted optimum when
  /// it fits the budget and flags the outlier otherwise.
  SaveOptions save;
  /// Use the exact enumeration algorithm instead of the DISC approximation
  /// (only tractable for small m and small attribute domains). Only its
  /// ExactSaver is built; it runs the same batch loop (SaveBatch) in input
  /// order on one worker, without a journal.
  bool use_exact = false;
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
  /// one "split" span and, on the DISC and the exact path alike, each
  /// save's span tree: the "save_outlier" root, its "search" child and the
  /// search's phase spans. Must outlive the call.
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

/// Per-outlier record of what happened: the search's SaveResult plus where
/// the outlier sits and what became of it. `termination` kCompleted /
/// kInfeasible is a definitive verdict; kDeadline / kCancelled /
/// kVisitBudget / kQueryBudget mean the search was truncated and the
/// record holds the best anytime answer — when `disposition` is kSaved the
/// adjustment is still fully feasible, it just may not be the cheapest one
/// a full search would find. `stats` is bit-identical across thread counts
/// except for the timing fields (SearchStats::SameWork); `trace_id` links
/// the record to its span tree, the /tracez ring and the wall-time
/// histogram exemplars (0 when tracing and explain were off, or the record
/// was restored from a journal).
struct OutlierRecord : SaveResult {
  std::size_t row = 0;  ///< row in the original relation
  OutlierDisposition disposition = OutlierDisposition::kInfeasible;
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
/// results. The data fixes the distance tier, and no option selects it:
/// the kd-tree and columnar search caches when `data` and `evaluator` are
/// ColumnarView::Eligible, the scalar DistanceEvaluator otherwise, with
/// bit-identical results either way.
/// Check `SavedDataset::status` first: a schema wider than
/// kMaxSaveableAttributes is rejected rather than silently truncated.
///
/// Anytime contract: with `batch_deadline_ms` / `cancellation` set, the
/// call still returns a complete SavedDataset — every outlier row gets a
/// record, every applied adjustment is fully feasible (≥ η ε-neighbors),
/// and truncated searches are marked via OutlierRecord::termination. See
/// DESIGN.md, "Anytime saving & degradation contract".
SavedDataset SaveOutliers(const Relation& data,
                          const DistanceEvaluator& evaluator,
                          const OutlierSavingOptions& options);

}  // namespace disc

#endif  // DISC_CORE_OUTLIER_SAVING_H_
