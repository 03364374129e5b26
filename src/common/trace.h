#ifndef DISC_COMMON_TRACE_H_
#define DISC_COMMON_TRACE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/buffers.h"
#include "common/jsonl_sink.h"

namespace disc {

/// One completed span of work on the save-pipeline timeline (DESIGN.md §13).
/// Timestamps are steady-clock nanoseconds; sinks rebase them onto their own
/// epoch so a whole run replays as a timeline starting near zero.
///
/// Spans are hierarchical: `trace_id` groups every span of one logical save
/// (the whole per-outlier pipeline), `span_id` identifies this span inside
/// the trace, and `parent_id` names the enclosing span (0 for a root). All
/// three ids are *derived*, not random — see DeriveTraceId/DeriveSpanId — so
/// the same batch traced twice (after resetting the batch counter) or traced
/// at different thread counts produces the identical span set.
struct TraceSpan {
  /// Span kind, e.g. "save_outlier", "search", "bounds_scan", "estimate".
  std::string name;
  /// Steady-clock start, nanoseconds since the clock's epoch.
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  /// Hierarchical identity. All zero for legacy/standalone spans.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  /// Attachments, emitted in insertion order.
  std::vector<std::pair<std::string, std::string>> str_attrs{};
  std::vector<std::pair<std::string, std::uint64_t>> int_attrs{};
  std::vector<std::pair<std::string, double>> num_attrs{};

  TraceSpan& Str(std::string key, std::string value) {
    str_attrs.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  TraceSpan& Int(std::string key, std::uint64_t value) {
    int_attrs.emplace_back(std::move(key), value);
    return *this;
  }
  TraceSpan& Num(std::string key, double value) {
    num_attrs.emplace_back(std::move(key), value);
    return *this;
  }
};

/// The current steady clock reading as span-compatible nanoseconds.
std::uint64_t TraceNowNs();

// ---------------------------------------------------------------------------
// Deterministic id derivation
// ---------------------------------------------------------------------------

/// Structural position of a span inside its trace; the `kind` input to
/// DeriveSpanId. Values are part of the id-derivation contract: changing
/// them changes every derived span id (4 and 5 named the retired per-chunk
/// spans and stay unused).
enum class TraceSpanKind : std::uint64_t {
  kRoot = 1,      ///< the per-outlier `save_outlier` pipeline span
  kSearch = 2,    ///< the branch-and-bound `search` under the root
  kPhase = 3,     ///< an aggregated wall-phase span under the search
  kEstimate = 6,  ///< the pre-batch cost-estimate span under the root
};

/// splitmix64-style finalizer: mixes `value` into `seed`. Deterministic,
/// collision-resistant enough for span identity (no adversarial input).
std::uint64_t TraceMix(std::uint64_t seed, std::uint64_t value);

/// Returns a fresh per-batch seed (splitmix of a process-global counter).
/// Every SaveAll batch that traces consumes one, so span ids never collide
/// across batches in one process while staying independent of time and
/// thread scheduling.
std::uint64_t NextTraceBatchSeed();

/// Test hook: pins the batch counter so two identical runs derive identical
/// ids (the span-set parity tests reset it before each run).
void SetTraceBatchCounterForTest(std::uint64_t value);

/// Trace id of the outlier at input position `ordinal` in a batch.
std::uint64_t DeriveTraceId(std::uint64_t batch_seed, std::uint64_t ordinal);

/// Span id from (parent span id, structural kind, per-kind ordinal). The
/// root span passes the trace id as `parent`.
std::uint64_t DeriveSpanId(std::uint64_t parent, TraceSpanKind kind,
                           std::uint64_t ordinal);

// ---------------------------------------------------------------------------
// Wall phases
// ---------------------------------------------------------------------------

/// The wall-phase taxonomy of one save. Every nanosecond of a search's wall
/// time belongs to at most one phase at a time (PhaseScope pauses the outer
/// phase while an inner one runs), so the per-phase totals sum to ≤ wall.
enum class TracePhase : std::size_t {
  kIndexQuery = 0,  ///< kNN / range / feasibility calls into the index
  kBoundsScan,      ///< Prop-3 / Prop-5 O(n) bound computations
  kDcacheFill,      ///< eager + lazy per-search distance-cache fills
  kEstimate,        ///< pre-batch η−1-NN cost estimation
  kVerdict,         ///< RevertRefine + result finalization
  kStealIdle,       ///< pool workers parked waiting for work
};
inline constexpr std::size_t kTracePhaseCount = 6;

/// Lower-case identifier, e.g. "index_query"; also the phase span name.
const char* TracePhaseName(TracePhase phase);

// ---------------------------------------------------------------------------
// WallPhaseProfiler — always-cheap process-wide phase accumulators
// ---------------------------------------------------------------------------

/// Process-wide per-phase wall-time accumulators behind /profilez. Adds are
/// relaxed atomic fetch-adds on a hashed, cache-line-padded shard (the
/// MetricsRegistry counter discipline), so attaching the profiler costs one
/// shard add per *phase edge*, not per row. Reset() is lossless: it
/// snapshots a baseline and reports current − baseline, so concurrent
/// adders never lose increments.
class WallPhaseProfiler {
 public:
  WallPhaseProfiler();

  /// Accumulates `ns` (and one occurrence) into `phase`. Any thread.
  void Add(TracePhase phase, std::uint64_t ns);

  struct PhaseTotal {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
  };

  /// Per-phase totals since construction or the last Reset().
  std::array<PhaseTotal, kTracePhaseCount> Snapshot() const;

  /// Re-bases the profile: subsequent Snapshot()s report only activity
  /// after this call.
  void Reset();

  /// The /profilez payload: schema_version, per-phase {ns, count}, and
  /// folded-stack flamegraph lines ("disc_save;bounds_scan 123456").
  std::string ToJson() const;

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kTracePhaseCount> ns;
    std::array<std::atomic<std::uint64_t>, kTracePhaseCount> count;
  };
  std::array<PhaseTotal, kTracePhaseCount> SumRaw() const;

  std::array<Shard, kShards> shards_;
  mutable std::mutex baseline_mu_;
  std::array<PhaseTotal, kTracePhaseCount> baseline_{};
};

/// Process-global profiler hook (mirrors GlobalMetrics). Detached (null) by
/// default: every instrumentation site null-checks before taking a clock
/// reading, so the detached overhead is a branch.
WallPhaseProfiler* GlobalWallProfiler();
void AttachGlobalWallProfiler(WallPhaseProfiler* profiler);

// ---------------------------------------------------------------------------
// TraceRecorder — recent finished spans + live active spans for /tracez
// ---------------------------------------------------------------------------

/// In-memory recorder behind /tracez: a mutex-guarded ring of the most
/// recent finished spans at or above a slowness threshold, plus a fixed
/// array of *currently active* searches published via atomics (claimed by
/// CAS, so readers never block a search and TSan stays clean; when all
/// slots are busy the search simply goes unlisted — best-effort by design).
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t recent_capacity = 128,
                         std::uint64_t slow_threshold_ns = 0);

  /// Adds a finished span to the recent ring when its duration meets the
  /// threshold. Any thread.
  void RecordFinished(const TraceSpan& span);

  /// Publishes an active search; returns the claimed slot, or -1 when the
  /// table is full (callers then skip EndActive). `name` must have static
  /// lifetime.
  int BeginActive(const char* name, std::uint64_t trace_id,
                  std::uint64_t span_id, std::uint64_t start_ns);
  void EndActive(int slot);

  /// The /tracez payload: schema_version, recent finished spans (slowest
  /// threshold applied, newest last), and active spans with elapsed time.
  std::string ToJson() const;

 private:
  static constexpr std::size_t kActiveSlots = 64;
  struct ActiveSlot {
    /// 0 = free, 1 = being written, 2 = published.
    std::atomic<std::uint64_t> state{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint64_t> span_id{0};
    std::atomic<std::uint64_t> start_ns{0};
  };

  const std::uint64_t slow_threshold_ns_;
  const std::uint64_t epoch_ns_;
  std::array<ActiveSlot, kActiveSlots> active_;
  mutable std::mutex mu_;
  RecentRing<TraceSpan> recent_;
};

/// Process-global recorder hook for the live HTTP plane (mirrors
/// GlobalMetrics); null = detached.
TraceRecorder* GlobalTraceRecorder();
void AttachGlobalTraceRecorder(TraceRecorder* recorder);

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Span consumer. Implementations must accept Emit() from any thread,
/// concurrently: the pipeline's merge loop emits "split"/"save_outlier"
/// spans in input order from one thread, while the batch observation drains
/// worker spans sorted by (trace_id, span_id). Every line is self-contained
/// (ids + the "ordinal" attribute key it to its position), so consumers
/// must not rely on line order across span kinds.
using TraceSink = Sink<TraceSpan>;

/// Serializes one span as a JSON object (the JSONL line / /tracez entry
/// format): span, t_ns (rebased on `epoch_ns`, clamped at 0), dur_ns,
/// trace_id, span_id, parent_id, then the attachments in insertion order.
void AppendTraceSpanJson(JsonWriter& json, const TraceSpan& span,
                         std::uint64_t epoch_ns);

/// JSON-Lines sink to a file, or to stdout for "-" (`disc_cli --trace -`):
/// one object per span, e.g.
///   {"span":"search","t_ns":812,"dur_ns":51023,"trace_id":1234,
///    "span_id":77,"parent_id":12,"ordinal":3,...}
/// `t_ns` is rebased to the sink's construction time. See JsonlSink for
/// buffering and I/O error reporting (the pipeline treats the trace as
/// best-effort and never fails a save on it).
class JsonlTraceSink : public JsonlSink<TraceSpan> {
 public:
  explicit JsonlTraceSink(std::string path);
};

}  // namespace disc

#endif  // DISC_COMMON_TRACE_H_
