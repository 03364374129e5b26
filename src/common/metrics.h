#ifndef DISC_COMMON_METRICS_H_
#define DISC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/buffers.h"

namespace disc {

/// Process-wide metrics for the save pipeline (DESIGN.md §8).
///
/// Design goals, in order:
///  1. Zero observable overhead when nothing is attached. Instrumented code
///     resolves `Counter*` handles once (at registry attach / object
///     construction) and guards every increment with a null check; the
///     per-search hot loops batch into a plain SearchStats struct and flush
///     into the registry once per search, so no atomic is touched per node.
///  2. TSan-clean under any thread count. Every mutation is a relaxed
///     fetch_add on the caller's cache-line-padded shard; snapshot reads use
///     acquire loads so a snapshot taken after a synchronization point (pool
///     join, future.get) observes every increment that happened before it.
///  3. Deterministic snapshots. Shards are summed in fixed order and metrics
///     are stored name-sorted, so two snapshots of identical work render
///     byte-identical JSON / Prometheus text.
///
/// Naming scheme: `disc_<subsystem>_<what>_<unit>`, lower_snake, counters
/// suffixed `_total`, histograms named after their unit (`_seconds`).

/// Monotonic counter, sharded per thread to keep concurrent Add() calls off
/// each other's cache lines. Add() is wait-free (one relaxed fetch_add).
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}

  /// Records `n` events. Thread-safe; relaxed ordering (see merge note on
  /// Value()).
  void Add(std::uint64_t n = 1) {
    shards_[ThisThreadShard(kShards)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over all shards, read with acquire loads: any Add() that
  /// happened-before this call (program order on one thread, or a
  /// synchronization edge such as a thread join / future.get across threads)
  /// is included. Concurrent Add()s may or may not be — a live counter is a
  /// monotone lower bound, exact once writers have synchronized.
  std::uint64_t Value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_acquire);
    }
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  /// Shard count: enough to spread a typical thread pool, small enough that
  /// snapshot sums stay trivial.
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  std::string name_;
  std::array<Shard, kShards> shards_;
};

/// Last-write-wins signed gauge (e.g. current queue depth, config values).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  void Set(std::int64_t v) { value_.store(v, std::memory_order_release); }
  void Add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t Value() const { return value_.load(std::memory_order_acquire); }
  const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram (cumulative, Prometheus-style `le` semantics).
/// Bucket bounds are set at registration and immutable afterwards; Observe()
/// is two relaxed fetch_adds plus a CAS loop for the running sum.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bucket_bounds);

  /// Records one observation. Thread-safe.
  void Observe(double value);

  /// A representative observation remembered per bucket: the trace id links
  /// a histogram bucket back to the span tree that produced one of its
  /// observations (OpenMetrics-style exemplars, JSON exposition only).
  struct Exemplar {
    double value = 0;
    std::uint64_t trace_id = 0;  ///< 0 = no exemplar recorded
  };

  /// Observe() plus exemplar capture: remembers (value, trace_id) as the
  /// exemplar of the bucket the observation lands in (last write wins).
  /// Takes a mutex — meant for batch-flush call sites, not hot loops. A
  /// zero trace_id records the observation but no exemplar.
  void ObserveWithExemplar(double value, std::uint64_t trace_id);

  /// Merged view of one histogram (deterministic shard order).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    /// counts[i] = observations <= bounds[i]; one final implicit +Inf
    /// bucket holds the remainder (count - counts.back()).
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;  ///< cumulative, same size as bounds
    /// Per-bucket exemplars, bounds.size() + 1 entries (last = +Inf);
    /// trace_id 0 marks an empty slot.
    std::vector<Exemplar> exemplars;
  };
  Snapshot Snap() const;

  const std::string& name() const { return name_; }

 private:
  struct alignas(64) Shard {
    std::vector<std::atomic<std::uint64_t>> buckets;  ///< per-bound, non-cumulative
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0};
  };
  static constexpr std::size_t kShards = 8;

  std::string name_;
  std::vector<double> bounds_;  ///< ascending
  std::vector<Shard> shards_;
  mutable std::mutex exemplar_mu_;
  std::vector<Exemplar> exemplars_;  ///< bounds_.size() + 1 slots
};

/// Name-keyed registry of counters, gauges and histograms.
///
/// Get*() registers on first use and returns a stable pointer thereafter
/// (the registry must outlive every user). A name registered as one type
/// returns null when requested as another — callers treat a null handle as
/// "metric disabled", which keeps misconfiguration observable but harmless.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// `help` (optional) becomes the `# HELP` line of the Prometheus
  /// exposition; the first non-empty help text for a name wins.
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  /// `bucket_bounds` must be ascending; used only on first registration.
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bucket_bounds,
                          const std::string& help = "");

  /// JSON exposition: one object with name-sorted "counters", "gauges" and
  /// "histograms" sections plus a schema_version. Deterministic for
  /// identical recorded work.
  std::string ToJson() const;

  /// Prometheus text exposition (text format 0.0.4): `# HELP` (when help
  /// text was registered) and `# TYPE` lines plus samples; histogram
  /// buckets as `name_bucket{le="..."}` with the conventional
  /// `_sum`/`_count` series. Help text and label values are escaped per
  /// the text-format spec (see PromEscapeHelp / PromEscapeLabelValue).
  std::string ToPrometheusText() const;

 private:
  void RememberHelp(const std::string& name, const std::string& help);

  mutable std::mutex mu_;
  /// std::map: iteration is name-sorted, which makes snapshots
  /// deterministic without a sort at exposition time.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;  ///< name → # HELP text
};

/// Escaping rules of the Prometheus text format 0.0.4. HELP text escapes
/// backslash and newline; label values additionally escape double quotes.
/// Exposed for direct testing (tests/metrics_test.cc).
std::string PromEscapeHelp(const std::string& s);
std::string PromEscapeLabelValue(const std::string& s);

/// The process-global registry, null until attached. Instrumented
/// construction sites (neighbor indexes, the save pipeline) resolve their
/// handles from here; a null return means "metrics disabled" and every
/// recording site degrades to a guarded no-op.
MetricsRegistry* GlobalMetrics();

/// Attaches (or detaches, with null) the global registry. Not synchronized
/// against concurrent queries: attach once at startup before spawning
/// workers, as disc_cli does. The registry must outlive everything built
/// while it was attached.
void AttachGlobalMetrics(MetricsRegistry* registry);

/// Per-implementation neighbor-index query counters, resolved from the
/// global registry at index construction. All handles stay null (and every
/// record site a guarded no-op) when no registry is attached — this is the
/// zero-overhead-when-disabled contract of DESIGN.md §8.
struct IndexQueryMetrics {
  Counter* range_queries = nullptr;
  Counter* count_queries = nullptr;
  Counter* knn_queries = nullptr;

  /// Handles named `disc_index_<impl>_{range,count,knn}_queries_total`, or
  /// all-null when no global registry is attached.
  static IndexQueryMetrics For(const char* impl);
};

}  // namespace disc

#endif  // DISC_COMMON_METRICS_H_
