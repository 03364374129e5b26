// BatchProgressTracker / ProgressRegistry unit tests, plus the key
// end-to-end property: attaching the global progress registry never
// perturbs the bit-identical-across-thread-counts contract of SaveOutliers.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "distance/evaluator.h"
#include "obs/progress.h"

namespace disc {
namespace {

TEST(BatchProgressTracker, CountsPerTerminationKind) {
  BatchProgressTracker tracker(1, "save_all", 6, Deadline::Infinite());
  tracker.RecordOutlier(SaveTermination::kCompleted, 1000);
  tracker.RecordOutlier(SaveTermination::kCompleted, 2000);
  tracker.RecordOutlier(SaveTermination::kInfeasible, 3000);
  tracker.RecordOutlier(SaveTermination::kDeadline, 4000);
  tracker.RecordOutlier(SaveTermination::kCancelled, 0);  // drained: no sample
  tracker.RecordOutlier(SaveTermination::kVisitBudget, 5000);

  BatchProgressTracker::Snapshot snap = tracker.Snap();
  EXPECT_EQ(snap.total, 6u);
  // kCompleted + kInfeasible are definitive verdicts.
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.infeasible, 1u);
  EXPECT_EQ(snap.degraded, 3u);
  EXPECT_EQ(snap.finished, 6u);
  EXPECT_FALSE(snap.done);
  // The zero-wall drained outlier is excluded from the percentile samples.
  EXPECT_EQ(snap.wall_samples, 5u);
  EXPECT_GT(snap.p50_wall_seconds, 0.0);
  EXPECT_GE(snap.p99_wall_seconds, snap.p50_wall_seconds);

  tracker.MarkDone();
  EXPECT_TRUE(tracker.Snap().done);
}

TEST(BatchProgressTracker, DeadlineSlackReportedWhileUnexpired) {
  BatchProgressTracker tracker(1, "save_all", 1,
                               Deadline::AfterMillis(60 * 1000));
  BatchProgressTracker::Snapshot snap = tracker.Snap();
  EXPECT_TRUE(snap.has_deadline);
  EXPECT_GT(snap.deadline_slack_seconds, 0.0);
  EXPECT_LE(snap.deadline_slack_seconds, 60.0);

  BatchProgressTracker unbudgeted(2, "save_all", 1, Deadline::Infinite());
  EXPECT_FALSE(unbudgeted.Snap().has_deadline);
  EXPECT_EQ(unbudgeted.Snap().deadline_slack_seconds, 0.0);
}

TEST(BatchProgressTracker, SampleRingOverflowKeepsNewestCapacitySamples) {
  const std::size_t cap = BatchProgressTracker::kSampleCapacity;
  BatchProgressTracker tracker(1, "save_all", 3 * cap, Deadline::Infinite());
  for (std::size_t i = 0; i < 3 * cap; ++i) {
    tracker.RecordOutlier(SaveTermination::kCompleted, 1000 * (i + 1));
  }
  BatchProgressTracker::Snapshot snap = tracker.Snap();
  EXPECT_EQ(snap.finished, 3 * cap);
  EXPECT_EQ(snap.wall_samples, cap);
  // Every retained sample comes from the newest `cap` recordings, so the
  // median sits in the newest third's range (> 2*cap microseconds).
  EXPECT_GT(snap.p50_wall_seconds, 2.0 * static_cast<double>(cap) * 1e-6);
}

TEST(BatchProgressTracker, ConcurrentRecordingIsExactAfterJoin) {
  const std::size_t kThreads = 8;
  const std::size_t kPerThread = 5000;
  BatchProgressTracker tracker(1, "save_all", kThreads * kPerThread,
                               Deadline::Infinite());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracker, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        tracker.RecordOutlier(t % 2 == 0 ? SaveTermination::kCompleted
                                         : SaveTermination::kDeadline,
                              100);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracker.MarkDone();
  BatchProgressTracker::Snapshot snap = tracker.Snap();
  EXPECT_EQ(snap.completed, kThreads / 2 * kPerThread);
  EXPECT_EQ(snap.degraded, kThreads / 2 * kPerThread);
  EXPECT_EQ(snap.finished, kThreads * kPerThread);
}

TEST(ProgressRegistry, RetainsFinishedBatchesUpToRetention) {
  ProgressRegistry registry;
  const std::size_t extra = 3;
  for (std::size_t i = 0;
       i < ProgressRegistry::kFinishedRetention + extra; ++i) {
    auto tracker = registry.StartBatch("save_all", 1, Deadline::Infinite());
    tracker->RecordOutlier(SaveTermination::kCompleted, 100);
    tracker->MarkDone();
  }
  EXPECT_EQ(registry.batches_started(),
            ProgressRegistry::kFinishedRetention + extra);
  std::vector<BatchProgressTracker::Snapshot> snaps = registry.Snapshots();
  ASSERT_EQ(snaps.size(), ProgressRegistry::kFinishedRetention);
  // Oldest finished batches were evicted: the retained window starts after
  // the `extra` evictees, in start order.
  EXPECT_EQ(snaps.front().id, extra + 1);
  EXPECT_EQ(snaps.back().id, ProgressRegistry::kFinishedRetention + extra);
}

TEST(ProgressRegistry, NeverEvictsInFlightBatches) {
  ProgressRegistry registry;
  // More in-flight batches than the retention budget: all stay visible.
  std::vector<std::shared_ptr<BatchProgressTracker>> live;
  for (std::size_t i = 0;
       i < ProgressRegistry::kFinishedRetention + 4; ++i) {
    live.push_back(registry.StartBatch("save_all", 10, Deadline::Infinite()));
  }
  EXPECT_EQ(registry.Snapshots().size(),
            ProgressRegistry::kFinishedRetention + 4);
}

/// Seeded noisy dataset (same construction as parallel_save_test): three
/// Gaussian clusters in 4-D with corrupted rows and two natural outliers.
Relation MakeNoisyDataset(std::uint64_t seed) {
  std::vector<ClusterSpec> specs = {
      {{0, 0, 0, 0}, 0.5, 80},
      {{10, 10, 0, 0}, 0.5, 80},
      {{0, 10, 10, 0}, 0.5, 80},
  };
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed);
  Rng rng(seed + 1);
  for (std::size_t row = 3; row < mixture.data.size(); row += 11) {
    std::size_t a = static_cast<std::size_t>(rng.UniformInt(0, 3));
    mixture.data[row][a] =
        Value(mixture.data[row][a].num() + 20.0 + rng.Uniform() * 5.0);
  }
  AppendNaturalOutliers(&mixture, 2, 60.0, seed + 2);
  return std::move(mixture.data);
}

TEST(ProgressTracking, SaveOutliersBitIdenticalAcrossThreadCounts) {
  Relation data = MakeNoisyDataset(/*seed=*/23);
  DistanceEvaluator evaluator(data.schema());

  OutlierSavingOptions options;
  options.constraint = {1.6, 5};
  options.save.kappa = 2;

  // Reference run with tracking disabled.
  ASSERT_EQ(GlobalProgress(), nullptr);
  options.num_threads = 1;
  SavedDataset reference = SaveOutliers(data, evaluator, options);
  ASSERT_TRUE(reference.status.ok());
  ASSERT_GT(reference.records.size(), 0u);

  ProgressRegistry registry;
  AttachGlobalProgress(&registry);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4},
                              std::size_t{8}}) {
    options.num_threads = threads;
    SavedDataset tracked = SaveOutliers(data, evaluator, options);
    ASSERT_TRUE(tracked.status.ok());
    ASSERT_EQ(tracked.records.size(), reference.records.size());
    for (std::size_t i = 0; i < tracked.records.size(); ++i) {
      const OutlierRecord& a = reference.records[i];
      const OutlierRecord& b = tracked.records[i];
      EXPECT_EQ(a.row, b.row) << "threads=" << threads;
      EXPECT_EQ(a.adjusted, b.adjusted) << "threads=" << threads;
      EXPECT_EQ(a.cost, b.cost) << "threads=" << threads;  // bit-identical
      EXPECT_EQ(a.adjusted_attributes.bits(), b.adjusted_attributes.bits());
      EXPECT_EQ(a.stats.index_queries, b.stats.index_queries)
          << "threads=" << threads;
    }
  }
  AttachGlobalProgress(nullptr);

  // Each tracked run registered exactly one batch, fully accounted for.
  std::vector<BatchProgressTracker::Snapshot> snaps = registry.Snapshots();
  ASSERT_EQ(snaps.size(), 3u);
  for (const BatchProgressTracker::Snapshot& snap : snaps) {
    EXPECT_EQ(snap.label, "save_all");
    EXPECT_EQ(snap.total, reference.records.size());
    EXPECT_EQ(snap.finished, snap.total);
    EXPECT_TRUE(snap.done);
    EXPECT_EQ(snap.degraded, 0u);
  }
}

}  // namespace
}  // namespace disc
