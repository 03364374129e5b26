#ifndef DISC_OBS_EXPLAIN_H_
#define DISC_OBS_EXPLAIN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffers.h"
#include "common/jsonl_sink.h"

namespace disc {

class MetricsRegistry;

// ---------------------------------------------------------------------------
// Decision events — what the branch-and-bound search did, per node
// ---------------------------------------------------------------------------

/// What the search decided at one point of its walk (DESIGN.md §14). Every
/// action but kRevertRefine is the fate of a branch-and-bound node;
/// kRevertRefine marks one successful post-search revert. Values are part
/// of the serialized contract (schemas/explain.schema.json).
enum class ExplainAction : std::uint8_t {
  /// The node was fully evaluated (both bounds) and neither pruned nor
  /// improved the incumbent; its children were explored.
  kExpand = 0,
  /// The Proposition-3 lower bound met or beat the incumbent — the whole
  /// subtree under X was cut.
  kPruneLb,
  /// The budget layer stopped the search at this node (deadline,
  /// cancellation, visit/query budget, or an injected fault).
  kPruneBudget,
  /// The lower bound proved no feasible adjustment keeps X fixed (< η−1
  /// reachable qualifiers); the subtree is cut as infeasible.
  kInfeasible,
  /// The Proposition-5 splice at X beat the incumbent and was adopted.
  kIncumbentUpdate,
  /// X was already processed — deduplicated by the visited-set memo table
  /// (§3.3.1) before any bound work.
  kMemoHit,
  /// RevertRefine restored one adjusted attribute to its original value
  /// (the adjustment stayed feasible and got strictly cheaper).
  kRevertRefine,
  /// X contains a set an earlier prune_lb or infeasible event cut, so X is
  /// cut without a scan (its lower bound is no smaller). Not counted
  /// in SearchStats::lb_prunes.
  kPruneDominated,
};
inline constexpr std::size_t kExplainActionCount = 8;

/// Lower-case identifier for JSON/metrics ("expand", "prune_lb", ...).
const char* ExplainActionName(ExplainAction action);

/// Sentinel for "no donor row" on events without a Proposition-5 splice.
inline constexpr std::uint64_t kExplainNoDonor =
    std::numeric_limits<std::uint64_t>::max();

/// One decision of one search. Numeric fields default to quiet NaN /
/// infinity sentinels meaning "not computed at this event"; serialization
/// omits non-finite values. Per action:
///   expand / incumbent_update / prune_budget — `lb` and `ub` hold whatever
///     bounds were computed before the decision; `donor_row` names the
///     Proposition-5 splice donor when an upper bound exists.
///   prune_lb / infeasible — `lb` is the pruning bound (infinite for
///     infeasible).
///   memo_hit / prune_dominated — only `x_bits` and the incumbent are
///     meaningful.
///   revert_refine — `x_bits` is the single reverted attribute (as a
///     one-bit mask) and `ub` the adjustment cost after the revert.
struct ExplainEvent {
  /// AttributeSet::bits() of the node's unadjusted set X.
  std::uint64_t x_bits = 0;
  ExplainAction action = ExplainAction::kExpand;
  /// True only for the X = ∅ global seed splice recorded before the search
  /// walk starts — it is an incumbent update but not a visited node, so
  /// node-count cross-checks must exclude it.
  bool seed = false;
  /// Proposition-3 lower bound for X (NaN = not computed, +inf =
  /// infeasible).
  double lb = std::numeric_limits<double>::quiet_NaN();
  /// Proposition-5 upper bound (splice cost) for X (NaN = none).
  double ub = std::numeric_limits<double>::quiet_NaN();
  /// Incumbent cost *after* this event (+inf = no incumbent yet).
  double incumbent = std::numeric_limits<double>::infinity();
  /// Donor row of the Proposition-5 splice behind `ub`.
  std::uint64_t donor_row = kExplainNoDonor;

  /// Bound gap ub − lb when both bounds are finite, NaN otherwise.
  double gap() const;
};

/// Hard cap on recorded events per search. A pathological search (huge m,
/// pruning disabled) could otherwise grow the log without bound; beyond the
/// cap events are counted in `dropped_events` instead of stored. The cap is
/// a count, never a time or memory heuristic, so the recorded prefix stays
/// bit-identical across thread counts.
inline constexpr std::size_t kExplainMaxEventsPerSearch = 65536;

// ---------------------------------------------------------------------------
// ExplainSearchLog — the finished per-search decision log
// ---------------------------------------------------------------------------

/// The decision log of one finished search, assembled by the batch
/// observation from the search's SearchObserver plus its verdict. This is
/// the unit emitted to sinks (one JSONL line) and fed to the recorder.
struct ExplainSearchLog {
  /// Input position of the outlier in its batch — the deterministic
  /// identity of the log (matches the trace "ordinal" attribute).
  std::uint64_t ordinal = 0;
  /// Trace id of the same save (0 when ids were never derived); links the
  /// log to spans and exemplars.
  std::uint64_t trace_id = 0;
  /// "disc" (branch-and-bound) or "exact" (domain enumeration). Node-count
  /// cross-checks apply only to "disc" — the exact path records incumbent
  /// updates and budget stops, not per-candidate events.
  std::string algo = "disc";
  /// SaveTerminationName of how the search ended.
  std::string termination = "completed";
  bool feasible = false;
  /// Final adjustment cost (NaN when infeasible).
  double final_cost = std::numeric_limits<double>::quiet_NaN();
  /// Lemma-2 global lower bound (0 when uninformative); with `final_cost`
  /// this certifies the approximation ratio.
  double global_lb = 0;
  /// Wall clock of the search (nondeterministic — excluded from the
  /// cross-thread parity contract, like SearchStats::wall_nanos).
  std::uint64_t wall_nanos = 0;
  /// Mirrors of the search's SearchStats counters used by the analyzer's
  /// cross-checks: every log must satisfy
  ///   count(prune_lb) + count(infeasible) == lb_prunes, and (disc only)
  ///   count(non-seed, non-memo node events) == visited_sets — a memo_hit
  ///   is a revisit of a set the memo already counted, and
  ///   count(revert_refine) == revert_refines.
  std::uint64_t visited_sets = 0;
  std::uint64_t lb_prunes = 0;
  std::uint64_t nodes_expanded = 0;
  std::uint64_t revert_refines = 0;
  std::uint64_t abandoned_scans = 0;
  std::uint64_t dropped_events = 0;
  std::vector<ExplainEvent> events;
};

// ---------------------------------------------------------------------------
// ExplainSummary — derived per-search analytics
// ---------------------------------------------------------------------------

/// One incumbent adoption on the search timeline.
struct ExplainIncumbentStep {
  std::uint64_t event_index = 0;  ///< position in the event log
  std::uint64_t depth = 0;        ///< |X| of the adopting node
  double cost = 0;                ///< incumbent cost after adoption
};

/// Derived analytics of one ExplainSearchLog: prune-reason breakdown, the
/// incumbent-evolution timeline, and bound-tightness ratios against the
/// final cost (the "opt" the search settled on). Ratios are NaN when
/// undefined (no feasible answer, zero cost, or no finite bound). Holds only
/// what it derives; the log's own fields stay on the log.
struct ExplainSummary {
  /// Per-action event counts, indexed by ExplainAction; they sum to the
  /// log's stored event count.
  std::array<std::uint64_t, kExplainActionCount> action_counts{};
  /// |X| of the event that produced the first incumbent (including the
  /// seed, whose depth is 0); -1 when the search never found one.
  std::int64_t first_feasible_depth = -1;
  /// Incumbent-evolution timeline, oldest first (capped — see
  /// kExplainTimelineCap — keeping the earliest adoptions plus the final
  /// one).
  std::vector<ExplainIncumbentStep> timeline;
  /// max over finite Prop-3 bounds of lb / final_cost — how close the best
  /// lower bound came to the answer (≤ 1 up to float rounding).
  double max_lb_over_cost = std::numeric_limits<double>::quiet_NaN();
  /// First finite Prop-5 bound / final_cost — how loose the first feasible
  /// splice was (≥ 1).
  double first_ub_over_cost = std::numeric_limits<double>::quiet_NaN();
  /// Bound-gap (ub − lb) statistics over events carrying both bounds.
  std::uint64_t gap_events = 0;
  double min_gap = std::numeric_limits<double>::quiet_NaN();
  double mean_gap = std::numeric_limits<double>::quiet_NaN();
};

/// Timeline entries kept per summary (earliest adoptions + the final one).
inline constexpr std::size_t kExplainTimelineCap = 32;

/// Derives the analytics of one log. Pure; deterministic for a fixed log.
ExplainSummary Summarize(const ExplainSearchLog& log);

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Consumer of finished decision logs. Emit() must accept calls from any
/// thread; the batch observation emits from its batch-end drain, in input
/// order.
using ExplainSink = Sink<ExplainSearchLog>;

/// Serializes one log as a JSON object (the JSONL line format of
/// schemas/explain.schema.json): verdict fields, the event array, and the
/// derived summary. Non-finite numbers are omitted rather than emitted.
void AppendExplainSearchJson(JsonWriter& json, const ExplainSearchLog& log);

/// JSON-Lines sink behind `disc_cli --explain=PATH`: one object per search.
/// An empty path or "-" writes to stdout instead of a file (the `--explain`
/// no-argument form). See JsonlSink for buffering and I/O error reporting
/// (explain is best-effort: a failed write never fails a save).
class ExplainJsonlSink : public JsonlSink<ExplainSearchLog> {
 public:
  explicit ExplainJsonlSink(const std::string& path);
};

// ---------------------------------------------------------------------------
// ExplainRecorder — live decision summaries for /explainz
// ---------------------------------------------------------------------------

/// In-memory recorder behind /explainz: batch-cumulative action totals, a
/// ring of the most recent search summaries, and the slowest searches seen
/// (by wall time). Mutex-guarded — it is fed once per *search* from the
/// batch-end drain, never from a hot path. Reset() is lossless for the
/// totals in the same sense as WallPhaseProfiler::Reset: it zeroes the
/// window under the same lock that RecordSearch takes, so a concurrent
/// scrape sees either the old window or the new one, never a torn mix.
class ExplainRecorder {
 public:
  explicit ExplainRecorder(std::size_t recent_capacity = 64,
                           std::size_t slowest_capacity = 8);

  /// Folds one finished search into the totals, the recent ring and the
  /// slowest table. Any thread.
  void RecordSearch(const ExplainSearchLog& log);

  /// The /explainz payload: schema_version, window totals (searches,
  /// events, per-action counts), recent summaries (newest last) and the
  /// slowest searches (slowest first).
  std::string ToJson() const;

  /// Starts a fresh window: zeroes totals, clears recent + slowest.
  void Reset();

 private:
  const std::size_t slowest_capacity_;
  mutable std::mutex mu_;
  std::uint64_t searches_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::uint64_t abandoned_scans_ = 0;
  std::array<std::uint64_t, kExplainActionCount> action_totals_{};
  /// One /explainz entry: the log's own fields (its events dropped) next to
  /// its summary.
  struct Entry {
    ExplainSearchLog log;
    ExplainSummary summary;
  };
  RecentRing<Entry> recent_;
  std::vector<Entry> slowest_;  ///< sorted by wall time, desc
};

/// Process-global recorder hook (mirrors GlobalMetrics /
/// GlobalTraceRecorder); null = detached. When attached, SaveAll records
/// decision logs even without an ExplainSink, so /explainz works in serve
/// mode without a JSONL file.
ExplainRecorder* GlobalExplainRecorder();
void AttachGlobalExplainRecorder(ExplainRecorder* recorder);

// ---------------------------------------------------------------------------
// Batch metrics
// ---------------------------------------------------------------------------

/// Once-per-batch flush of decision-log aggregates into the registry:
/// disc_explain_searches_total, disc_explain_events_total,
/// disc_explain_events_dropped_total, disc_explain_abandoned_scans_total,
/// disc_explain_action_<action>_total, and the disc_save_bound_gap
/// histogram (one observation per event carrying both bounds, with the
/// search's trace id as exemplar). Null registry or empty logs = no-op.
void FlushExplainMetrics(MetricsRegistry* metrics,
                         const std::vector<ExplainSearchLog>& logs);

}  // namespace disc

#endif  // DISC_OBS_EXPLAIN_H_
