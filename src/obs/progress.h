#ifndef DISC_OBS_PROGRESS_H_
#define DISC_OBS_PROGRESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/search_budget.h"

namespace disc {

class JsonWriter;

/// Live view of one in-flight save batch (DESIGN.md §8, "Live observability
/// plane"). The batch observation of both savers (core/observation.h)
/// registers a tracker with the global ProgressRegistry when one is
/// attached; worker threads record each finished outlier; `/statusz`
/// snapshots the tracker while the batch runs.
///
/// Write path (RecordOutlier) follows the per-thread shard pattern of
/// common/metrics: each worker bumps relaxed atomics on its own
/// cache-line-padded shard and publishes one wall-time sample into a
/// fixed-capacity ring — no lock, no allocation, one call per *outlier*
/// (never per search node), so tracking adds nothing measurable to the
/// columnar save path and cannot perturb result determinism.
///
/// Read path (Snap) sums the shards with acquire loads and copies the
/// sample ring; like a live Counter it is a monotone lower bound that
/// becomes exact once the batch joins its workers.
class BatchProgressTracker {
 public:
  /// `label` names the batch on /statusz ("save_all", "save_exact"),
  /// `total` is the number of outliers queued, `deadline` the batch
  /// deadline (infinite when the batch is unbudgeted).
  BatchProgressTracker(std::uint64_t id, std::string label, std::size_t total,
                       Deadline deadline);

  /// Records one finished (or drained-and-skipped) outlier. Thread-safe,
  /// lock-free: two relaxed fetch_adds plus one relaxed store.
  /// `wall_nanos` is the search wall time (0 for skipped outliers — those
  /// are excluded from the percentile samples but counted as degraded).
  void RecordOutlier(SaveTermination termination, std::uint64_t wall_nanos);

  /// Records one outlier restored from a SaveJournal instead of searched.
  /// Counts toward `completed` (its recorded verdict was definitive) and
  /// toward `resumed`; contributes no wall-time sample.
  void RecordResumed(SaveTermination termination);

  /// Marks the batch finished (workers joined; counts are final).
  void MarkDone();

  /// Point-in-time view, safe to take from any thread at any moment.
  struct Snapshot {
    std::uint64_t id = 0;
    std::string label;
    std::size_t total = 0;
    /// Searches that ran to their definitive verdict (kCompleted or
    /// kInfeasible — the search itself finished, whatever the answer).
    std::size_t completed = 0;
    /// Truncated searches: deadline / cancellation / visit / query budget.
    std::size_t degraded = 0;
    /// Definitive kInfeasible verdicts (a subset of `completed`).
    std::size_t infeasible = 0;
    /// completed + degraded (== total once the batch is done).
    std::size_t finished = 0;
    /// total − finished: outliers still queued or in flight on the pool —
    /// the live queue-depth view of the batch.
    std::size_t queued = 0;
    /// Outliers restored from a SaveJournal (a subset of `completed`).
    std::size_t resumed = 0;
    bool done = false;
    double elapsed_seconds = 0;
    bool has_deadline = false;
    /// Batch wall clock left, clamped at 0 (0 when expired or no deadline).
    double deadline_slack_seconds = 0;
    /// Percentiles over the recorded per-search wall times (0 when no
    /// samples yet). Computed from the newest kSampleCapacity samples.
    double p50_wall_seconds = 0;
    double p99_wall_seconds = 0;
    std::size_t wall_samples = 0;

    /// Appends this snapshot as one JSON object (schemas/statusz.schema.json,
    /// "batches" items).
    void AppendJson(JsonWriter* json) const;
  };
  Snapshot Snap() const;

  bool done() const { return done_.load(std::memory_order_acquire); }

  /// Newest per-search wall-time samples retained for the percentiles.
  static constexpr std::size_t kSampleCapacity = 1024;

 private:
  static constexpr std::size_t kShards = 16;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> degraded{0};
    std::atomic<std::uint64_t> infeasible{0};
    std::atomic<std::uint64_t> resumed{0};
  };

  const std::uint64_t id_;
  const std::string label_;
  const std::size_t total_;
  const Deadline deadline_;
  const std::uint64_t start_ns_;
  std::atomic<bool> done_{false};
  std::array<Shard, kShards> shards_;
  /// Wall-time sample ring: writers claim a slot with one fetch_add and
  /// store their sample; the newest kSampleCapacity samples win. A slot
  /// being rewritten while Snap copies it yields one stale-vs-fresh sample
  /// — harmless for a percentile estimate, and exact after MarkDone.
  std::atomic<std::uint64_t> sample_count_{0};
  std::array<std::atomic<std::uint64_t>, kSampleCapacity> samples_{};
};

/// Process-wide registry of in-flight (and recently finished) batches.
/// Registration is once per batch under a mutex; everything per-outlier
/// stays on the tracker's lock-free path. Finished batches are retained
/// (newest kFinishedRetention) so /statusz can show what just ran.
class ProgressRegistry {
 public:
  ProgressRegistry() = default;
  ProgressRegistry(const ProgressRegistry&) = delete;
  ProgressRegistry& operator=(const ProgressRegistry&) = delete;

  /// Registers a new batch and returns its tracker (shared: the registry
  /// retains it for /statusz after the batch object goes out of scope).
  std::shared_ptr<BatchProgressTracker> StartBatch(std::string label,
                                                   std::size_t total,
                                                   Deadline deadline);

  /// Snapshots of every retained batch, oldest first.
  std::vector<BatchProgressTracker::Snapshot> Snapshots() const;

  /// Batches started since construction.
  std::uint64_t batches_started() const {
    return next_id_.load(std::memory_order_acquire) - 1;
  }

  /// How many finished batches are kept visible on /statusz.
  static constexpr std::size_t kFinishedRetention = 8;

 private:
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> next_id_{1};
  std::vector<std::shared_ptr<BatchProgressTracker>> batches_;
};

/// The process-global registry, null until attached (same contract as
/// GlobalMetrics: null means tracking disabled and every registration site
/// a guarded no-op; attach once at startup before spawning workers).
ProgressRegistry* GlobalProgress();
void AttachGlobalProgress(ProgressRegistry* registry);

}  // namespace disc

#endif  // DISC_OBS_PROGRESS_H_
