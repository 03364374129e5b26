#include "obs/progress.h"

#include <algorithm>
#include <vector>

#include "common/buffers.h"
#include "common/json_writer.h"
#include "common/trace.h"

namespace disc {

namespace {

std::atomic<ProgressRegistry*> g_global_progress{nullptr};

/// Nearest-rank percentile over an ascending-sorted sample vector.
double Percentile(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]) * 1e-9;
}

}  // namespace

BatchProgressTracker::BatchProgressTracker(std::uint64_t id, std::string label,
                                           std::size_t total,
                                           Deadline deadline)
    : id_(id),
      label_(std::move(label)),
      total_(total),
      deadline_(deadline),
      start_ns_(TraceNowNs()) {}

void BatchProgressTracker::RecordOutlier(SaveTermination termination,
                                         std::uint64_t wall_nanos) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  switch (termination) {
    case SaveTermination::kCompleted:
      shard.completed.fetch_add(1, std::memory_order_relaxed);
      break;
    case SaveTermination::kInfeasible:
      shard.completed.fetch_add(1, std::memory_order_relaxed);
      shard.infeasible.fetch_add(1, std::memory_order_relaxed);
      break;
    case SaveTermination::kVisitBudget:
    case SaveTermination::kQueryBudget:
    case SaveTermination::kDeadline:
    case SaveTermination::kCancelled:
    case SaveTermination::kFault:
      shard.degraded.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (wall_nanos > 0) {
    const std::uint64_t slot =
        sample_count_.fetch_add(1, std::memory_order_relaxed) %
        kSampleCapacity;
    samples_[slot].store(wall_nanos, std::memory_order_relaxed);
  }
}

void BatchProgressTracker::RecordResumed(SaveTermination termination) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  shard.completed.fetch_add(1, std::memory_order_relaxed);
  if (termination == SaveTermination::kInfeasible) {
    shard.infeasible.fetch_add(1, std::memory_order_relaxed);
  }
  shard.resumed.fetch_add(1, std::memory_order_relaxed);
}

void BatchProgressTracker::MarkDone() {
  done_.store(true, std::memory_order_release);
}

BatchProgressTracker::Snapshot BatchProgressTracker::Snap() const {
  Snapshot snap;
  snap.id = id_;
  snap.label = label_;
  snap.total = total_;
  for (const Shard& s : shards_) {
    snap.completed += s.completed.load(std::memory_order_acquire);
    snap.degraded += s.degraded.load(std::memory_order_acquire);
    snap.infeasible += s.infeasible.load(std::memory_order_acquire);
    snap.resumed += s.resumed.load(std::memory_order_acquire);
  }
  snap.finished = snap.completed + snap.degraded;
  snap.queued = snap.finished < snap.total ? snap.total - snap.finished : 0;
  snap.done = done();
  snap.elapsed_seconds =
      static_cast<double>(TraceNowNs() - start_ns_) * 1e-9;
  snap.has_deadline = !deadline_.is_infinite();
  if (snap.has_deadline) {
    snap.deadline_slack_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            deadline_.remaining())
            .count();
  }
  const std::uint64_t count = sample_count_.load(std::memory_order_acquire);
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(count, kSampleCapacity));
  if (n > 0) {
    std::vector<std::uint64_t> sorted;
    sorted.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t v = samples_[i].load(std::memory_order_acquire);
      if (v > 0) sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end());
    snap.wall_samples = sorted.size();
    snap.p50_wall_seconds = Percentile(sorted, 0.50);
    snap.p99_wall_seconds = Percentile(sorted, 0.99);
  }
  return snap;
}

void BatchProgressTracker::Snapshot::AppendJson(JsonWriter* json) const {
  json->BeginObject();
  json->Key("id").Uint(id);
  json->Key("label").String(label);
  json->Key("total").Uint(total);
  json->Key("completed").Uint(completed);
  json->Key("degraded").Uint(degraded);
  json->Key("infeasible").Uint(infeasible);
  json->Key("finished").Uint(finished);
  json->Key("queued").Uint(queued);
  json->Key("resumed").Uint(resumed);
  json->Key("done").Bool(done);
  json->Key("elapsed_seconds").Number(elapsed_seconds);
  json->Key("has_deadline").Bool(has_deadline);
  json->Key("deadline_slack_seconds").Number(deadline_slack_seconds);
  json->Key("p50_wall_seconds").Number(p50_wall_seconds);
  json->Key("p99_wall_seconds").Number(p99_wall_seconds);
  json->Key("wall_samples").Uint(wall_samples);
  json->EndObject();
}

std::shared_ptr<BatchProgressTracker> ProgressRegistry::StartBatch(
    std::string label, std::size_t total, Deadline deadline) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  auto tracker = std::make_shared<BatchProgressTracker>(id, std::move(label),
                                                        total, deadline);
  std::lock_guard<std::mutex> lock(mu_);
  // Evict the oldest *finished* batches beyond the retention window;
  // in-flight trackers are never evicted (a scrape must always see them).
  std::size_t finished = 0;
  for (const auto& b : batches_) {
    if (b->done()) ++finished;
  }
  for (auto it = batches_.begin();
       finished >= kFinishedRetention && it != batches_.end();) {
    if ((*it)->done()) {
      it = batches_.erase(it);
      --finished;
    } else {
      ++it;
    }
  }
  batches_.push_back(tracker);
  return tracker;
}

std::vector<BatchProgressTracker::Snapshot> ProgressRegistry::Snapshots()
    const {
  std::vector<std::shared_ptr<BatchProgressTracker>> batches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batches = batches_;
  }
  std::vector<BatchProgressTracker::Snapshot> out;
  out.reserve(batches.size());
  for (const auto& b : batches) out.push_back(b->Snap());
  return out;
}

ProgressRegistry* GlobalProgress() {
  return g_global_progress.load(std::memory_order_acquire);
}

void AttachGlobalProgress(ProgressRegistry* registry) {
  g_global_progress.store(registry, std::memory_order_release);
}

}  // namespace disc
