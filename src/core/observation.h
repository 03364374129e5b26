#ifndef DISC_CORE_OBSERVATION_H_
#define DISC_CORE_OBSERVATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffers.h"
#include "common/deadline.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/search_budget.h"
#include "obs/explain.h"

namespace disc {

class BatchProgressTracker;
class Gauge;
class MetricsRegistry;
class PhaseScope;
struct SaveResult;

/// The observer of one search (DESIGN.md §13–§14): its decision
/// log, its wall-phase accounting and its span identity. It rides on the
/// BudgetGauge, which already reaches every decision site, bound scan, cache
/// fill and index query, and like the gauge it is owned by the search's
/// thread; the chunk bodies of nested scans never touch it. A search
/// nothing observes carries no observer, so every site costs one null
/// check.
struct SearchObserver {
  PerWorkerBuffer<TraceSpan>* spans = nullptr;  ///< null = no span export
  WallPhaseProfiler* profiler = nullptr;        ///< null = /profilez detached
  /// Decision capture: BudgetGauge::RecordDecision stores into `events`.
  bool capture = false;
  std::uint64_t trace_id = 0;
  std::uint64_t search_span_id = 0;  ///< parent of every phase span

  /// The decision log. Beyond kExplainMaxEventsPerSearch, events are
  /// counted in `dropped_events` instead of stored, so the stored prefix
  /// stays bit-identical across thread counts.
  std::vector<ExplainEvent> events{};
  std::uint64_t dropped_events = 0;
  /// Bound scans the budget layer cut short (they returned their safe
  /// uninformative value): bound-quality data polluted by truncation.
  std::uint64_t abandoned_scans = 0;

  struct PhaseAcc {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    std::uint64_t first_start_ns = 0;
  };
  std::array<PhaseAcc, kTracePhaseCount> phases{};
  /// Innermost live PhaseScope on the owning thread (intrusive stack).
  PhaseScope* active_scope = nullptr;

  /// True when spans or the profiler want wall phases; PhaseScope reads the
  /// clock only then.
  bool timed() const { return spans != nullptr || profiler != nullptr; }

  /// Stores `event` when capture is on (up to the cap).
  void Capture(const ExplainEvent& event);

  std::uint64_t PhaseSpanId(TracePhase phase) const {
    return DeriveSpanId(search_span_id, TraceSpanKind::kPhase,
                        static_cast<std::uint64_t>(phase));
  }

  /// Emits one aggregated span per touched phase, under the search span,
  /// and folds the totals into the profiler. Once per search.
  void FlushPhases() const;
};

/// RAII wall-phase marker. Entering a phase pauses the enclosing one (its
/// elapsed time is banked) and resumes it on exit, so exactly one phase is
/// charged at any instant and each edge costs one clock read. A no-op when
/// the search is untimed.
class PhaseScope {
 public:
  PhaseScope(SearchObserver* observer, TracePhase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  SearchObserver* observer_;
  PhaseScope* prev_ = nullptr;
  TracePhase phase_;
  std::uint64_t first_start_ns_ = 0;
  std::uint64_t segment_start_ns_ = 0;
  std::uint64_t banked_ns_ = 0;  ///< finished segments (excludes children)
};

/// Observation of one save batch, built once per SaveBatch call for either
/// saver: the batch seed and id derivation, the per-worker span and
/// decision-log buffers, the /tracez active slots, the progress tracker and
/// the per-search SearchObservers. Finish() drains the buffers sorted —
/// spans by (trace_id, span_id), logs by ordinal — to the sinks,
/// the /tracez ring and /explainz, and flushes the disc_explain_* and
/// disc_sched_* metrics.
///
/// A sink or live recorder of either kind derives the batch's ids, so logs,
/// spans and exemplars join on one trace id. Ids derive from (batch seed,
/// input ordinal), never from time or scheduling, so the exports are the
/// same at every thread count (the estimate spans of the parallel path
/// excepted).
class BatchObservation {
 public:
  /// `exact` tags the logs "exact" and the /statusz batch "save_exact"
  /// (else "disc" and "save_all"). `pool` runs the batch's tasks (null =
  /// inline); its scheduler deltas and queue depth feed disc_sched_*.
  BatchObservation(bool exact, std::size_t outliers, Deadline deadline,
                   TraceSink* trace, ExplainSink* explain,
                   WorkStealingPool* pool);
  BatchObservation(const BatchObservation&) = delete;
  BatchObservation& operator=(const BatchObservation&) = delete;

  /// Counts one outlier restored from a save journal.
  void Resumed(SaveTermination termination);

  /// Runs `estimate()`, the scheduling cost estimate of `ordinal`, as the
  /// estimate phase with its own span.
  template <class Estimate>
  double TimeEstimate(std::size_t ordinal, Estimate&& estimate) {
    if (!spans_.has_value() && profiler_ == nullptr) return estimate();
    const std::uint64_t start_ns = TraceNowNs();
    const double cost = estimate();
    RecordEstimate(ordinal, start_ns, cost);
    return cost;
  }

  /// Drains and flushes everything, once, after the batch joined.
  void Finish();

  /// Observation of one outlier's save, on the thread that runs it.
  class Search {
   public:
    Search(BatchObservation* batch, std::size_t ordinal);
    Search(const Search&) = delete;
    Search& operator=(const Search&) = delete;

    /// Starts the search: lists it on /tracez and returns its observer, or
    /// null when nothing observes. Called at most once; a skipped outlier
    /// never starts.
    SearchObserver* Start();

    /// Stamps the save's trace id on `result` (0 when no span or log
    /// consumer is attached) and records the `search` span, progress, the
    /// pool's queue depth and, for a searched outlier, its decision log.
    void Finish(SaveResult* result);

   private:
    BatchObservation* batch_;
    std::size_t ordinal_;
    std::uint64_t trace_id_;
    std::uint64_t root_span_;
    int active_slot_ = -1;
    /// Set by Start() when something observes; empty for a skipped outlier.
    std::optional<SearchObserver> observer_;
  };

 private:
  void RecordEstimate(std::size_t ordinal, std::uint64_t start_ns,
                      double cost);

  const char* algo_;
  TraceSink* trace_;
  ExplainSink* explain_;
  TraceRecorder* recorder_;
  WallPhaseProfiler* profiler_;
  ExplainRecorder* explain_recorder_;
  MetricsRegistry* metrics_;
  WorkStealingPool* pool_;
  std::uint64_t batch_seed_ = 0;
  std::optional<PerWorkerBuffer<TraceSpan>> spans_;
  std::optional<PerWorkerBuffer<ExplainSearchLog>> logs_;
  std::shared_ptr<BatchProgressTracker> progress_;
  Gauge* depth_gauge_ = nullptr;
  WorkStealingPool::SchedStats sched_before_;
};

}  // namespace disc

#endif  // DISC_CORE_OBSERVATION_H_
