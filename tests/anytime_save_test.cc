// Anytime-saving contract across the pipeline: exhaustive fault-injection
// sweeps over every node-expansion point (DiscSaver and ExactSaver), already-
// expired deadlines, batch deadlines with wall-clock bounds, drain-and-skip
// cancellation, and the no-budget bit-identity guarantee.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/disc_saver.h"
#include "core/exact_saver.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "index/index_factory.h"

namespace disc {
namespace {

Relation GaussianInliers(std::size_t count, std::size_t dims,
                         std::uint64_t seed) {
  Rng rng(seed);
  Relation r(Schema::Numeric(dims));
  for (std::size_t i = 0; i < count; ++i) {
    Tuple t(dims);
    for (std::size_t d = 0; d < dims; ++d) t[d] = Value(rng.Gaussian(0, 1.0));
    r.AppendUnchecked(std::move(t));
  }
  return r;
}

Relation LatticeInliers(int side) {
  Relation r(Schema::Numeric(2));
  for (int x = 0; x < side; ++x) {
    for (int y = 0; y < side; ++y) {
      r.AppendUnchecked(Tuple::Numeric({double(x), double(y)}));
    }
  }
  return r;
}

/// Noisy multi-cluster dataset for SaveOutliers-level tests.
Relation MakeNoisyDataset(std::uint64_t seed) {
  std::vector<ClusterSpec> specs = {
      {{0, 0, 0, 0}, 0.5, 70},
      {{10, 10, 0, 0}, 0.5, 70},
      {{0, 10, 10, 0}, 0.5, 70},
  };
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed);
  Rng rng(seed + 1);
  for (std::size_t row = 3; row < mixture.data.size(); row += 9) {
    std::size_t a = static_cast<std::size_t>(rng.UniformInt(0, 3));
    mixture.data[row][a] =
        Value(mixture.data[row][a].num() + 20.0 + rng.Uniform() * 5.0);
  }
  return std::move(mixture.data);
}

/// A kCancel fault at the k-th `search.node` hit — the exhaustive-sweep
/// probe: combined with `injector.token()` as the search's cancellation,
/// it reproduces "cancel at exactly node k" deterministically.
FaultSpec CancelAtNode(std::size_t k) {
  FaultSpec spec;
  spec.site = "search.node";
  spec.kind = FaultKind::kCancel;
  spec.nth = k;
  return spec;
}

/// The core soundness assertion of the anytime contract: a (possibly
/// truncated) result is either a fully feasible adjustment with a
/// consistent cost, or the untouched input — never a partially-adjusted
/// tuple.
void ExpectSoundResult(const DiscSaver& saver, const DistanceEvaluator& ev,
                       const Tuple& outlier, const SaveResult& res) {
  if (res.feasible) {
    EXPECT_TRUE(saver.bounds().IsFeasible(res.adjusted));
    EXPECT_NEAR(res.cost, ev.Distance(outlier, res.adjusted), 1e-12);
    EXPECT_EQ(res.adjusted_attributes.bits(),
              ChangedAttributes(outlier, res.adjusted).bits());
  } else {
    EXPECT_EQ(res.adjusted, outlier);
  }
}

TEST(AnytimeSave, DiscCancellationSweepEveryNodeIsSound) {
  // Exhaustively cancel at every node-expansion index of a full search and
  // check the exit is sound at each point. 4 attributes keeps the full
  // traversal at <= 2^4 visited sets, so the sweep stays fast.
  Relation inliers = GaussianInliers(50, 4, 21);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.5, 4});
  const Tuple outlier = Tuple::Numeric({0.2, -0.1, 12.0, 0.3});

  // Reference run: an armed-but-empty injector counts `search.node` hits
  // without firing anything, giving the node-expansion total of a full
  // search alongside its answer.
  FaultInjector counter;
  AttachGlobalFaultInjector(&counter);
  SaveResult full = saver.Save(outlier);
  AttachGlobalFaultInjector(nullptr);
  ASSERT_TRUE(full.feasible);
  ASSERT_EQ(full.termination, SaveTermination::kCompleted);
  const std::size_t total_nodes =
      static_cast<std::size_t>(counter.hit_count("search.node"));
  ASSERT_GT(total_nodes, 2u);

  for (std::size_t k = 0; k < total_nodes; ++k) {
    FaultInjector injector;
    injector.Add(CancelAtNode(k));
    AttachGlobalFaultInjector(&injector);
    SaveResult res =
        saver.Save(outlier, {}, Deadline::Infinite(), injector.token());
    AttachGlobalFaultInjector(nullptr);
    EXPECT_EQ(res.termination, SaveTermination::kCancelled) << "node " << k;
    ExpectSoundResult(saver, ev, outlier, res);
    if (res.feasible) {
      // Incumbent monotonicity: a truncated answer never beats the optimum
      // of the full search.
      EXPECT_GE(res.cost, full.cost - 1e-12) << "node " << k;
    }
  }
}

TEST(AnytimeSave, DiscCancellationSweepKappaRestricted) {
  // Same sweep through the κ-restricted walker (different seeding and
  // incumbent handling than the unrestricted path).
  Relation inliers = GaussianInliers(50, 4, 22);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.5, 4});
  const Tuple outlier = Tuple::Numeric({0.0, 0.1, 11.0, -0.2});

  FaultInjector counter;
  SaveOptions counting;
  counting.kappa = 2;
  AttachGlobalFaultInjector(&counter);
  SaveResult full = saver.Save(outlier, counting);
  AttachGlobalFaultInjector(nullptr);
  const std::size_t total_nodes =
      static_cast<std::size_t>(counter.hit_count("search.node"));
  ASSERT_GT(total_nodes, 2u);

  for (std::size_t k = 0; k < total_nodes; ++k) {
    FaultInjector injector;
    injector.Add(CancelAtNode(k));
    AttachGlobalFaultInjector(&injector);
    SaveResult res =
        saver.Save(outlier, counting, Deadline::Infinite(), injector.token());
    AttachGlobalFaultInjector(nullptr);
    EXPECT_EQ(res.termination, SaveTermination::kCancelled) << "node " << k;
    ExpectSoundResult(saver, ev, outlier, res);
    if (res.feasible && full.feasible) {
      EXPECT_LE(res.adjusted_attributes.size(), 2u) << "node " << k;
      EXPECT_GE(res.cost, full.cost - 1e-12) << "node " << k;
    }
  }
}

TEST(AnytimeSave, ExactCancellationSweepEveryCandidateIsSound) {
  Relation inliers = LatticeInliers(3);  // 9 points, small discrete domain
  DistanceEvaluator ev(inliers.schema());
  ExactSaver saver(inliers, ev, {1.5, 3});
  const Tuple outlier = Tuple::Numeric({7, 7});

  SaveResult full = saver.Save(outlier);
  ASSERT_TRUE(full.termination == SaveTermination::kCompleted ||
              full.termination == SaveTermination::kInfeasible);
  ASSERT_GT(full.stats.nodes_expanded, 2u);

  for (std::size_t k = 0; k < full.stats.nodes_expanded; ++k) {
    FaultInjector injector;
    injector.Add(CancelAtNode(k));
    AttachGlobalFaultInjector(&injector);
    SaveResult res =
        saver.Save(outlier, {}, Deadline::Infinite(), injector.token());
    AttachGlobalFaultInjector(nullptr);
    EXPECT_EQ(res.termination, SaveTermination::kCancelled) << "leaf " << k;
    if (res.feasible) {
      EXPECT_NEAR(res.cost, ev.Distance(outlier, res.adjusted), 1e-12);
      if (full.feasible) EXPECT_GE(res.cost, full.cost - 1e-12);
    } else {
      EXPECT_EQ(res.adjusted, outlier);
    }
  }
}

TEST(AnytimeSave, AlreadyExpiredDeadlineReturnsSoundRecordImmediately) {
  Relation inliers = GaussianInliers(60, 3, 23);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.5, 4});
  const Tuple outlier = Tuple::Numeric({0.1, 9.0, -0.3});
  SaveResult res = saver.Save(outlier, {}, Deadline::AfterMillis(-1));
  EXPECT_EQ(res.termination, SaveTermination::kDeadline);
  ExpectSoundResult(saver, ev, outlier, res);
}

TEST(AnytimeSave, QueryBudgetTruncatesSoundly) {
  Relation inliers = GaussianInliers(60, 4, 24);
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.5, 4});
  const Tuple outlier = Tuple::Numeric({0.2, 10.0, -0.1, 0.4});
  SaveOptions opts;
  opts.budget.max_index_queries = 5;
  SaveResult res = saver.Save(outlier, opts);
  EXPECT_EQ(res.termination, SaveTermination::kQueryBudget);
  ExpectSoundResult(saver, ev, outlier, res);

  SaveResult unbudgeted = saver.Save(outlier);
  EXPECT_GT(unbudgeted.stats.index_queries, 5u)
      << "scenario must actually exceed the query budget";
}

TEST(AnytimeSave, UnlimitedBatchBudgetBitIdenticalToPlainSaveAll) {
  Relation data = MakeNoisyDataset(31);
  DistanceEvaluator ev(data.schema());
  DistanceConstraint constraint{1.6, 5};
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, ev, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  ASSERT_GT(split.outlier_rows.size(), 3u);
  Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);

  DiscSaver saver(inliers, ev, constraint);
  SaveOptions options;
  options.kappa = 2;

  std::vector<SaveResult> plain = saver.SaveAll(outliers, options);
  // A batch budget that never trips (generous deadline, live token) must
  // not change a single bit of the output.
  CancellationSource never_fired;
  BatchBudget generous;
  generous.deadline = Deadline::AfterMillis(3'600'000);
  generous.cancellation = never_fired.token();
  std::vector<SaveResult> budgeted =
      saver.SaveAll(outliers, options, nullptr, generous);
  ASSERT_EQ(plain.size(), budgeted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].feasible, budgeted[i].feasible) << i;
    EXPECT_EQ(plain[i].adjusted, budgeted[i].adjusted) << i;
    EXPECT_EQ(plain[i].cost, budgeted[i].cost) << i;  // bit-identical
    EXPECT_EQ(plain[i].termination, budgeted[i].termination) << i;
    EXPECT_EQ(plain[i].stats.index_queries, budgeted[i].stats.index_queries)
        << i;
  }
}

TEST(AnytimeSave, PreCancelledBatchDrainsAndSkipsEverything) {
  Relation data = MakeNoisyDataset(32);
  DistanceEvaluator ev(data.schema());
  DistanceConstraint constraint{1.6, 5};
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, ev, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  ASSERT_GT(split.outlier_rows.size(), 3u);
  Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);

  DiscSaver saver(inliers, ev, constraint);
  CancellationSource source;
  source.RequestCancel();
  BatchBudget batch;
  batch.cancellation = source.token();

  // Sequential and pooled paths must both drain-and-skip: every record
  // present, nothing adjusted, pool shutdown unblocked.
  WorkStealingPool pool(4);
  for (WorkStealingPool* p : {static_cast<WorkStealingPool*>(nullptr), &pool}) {
    std::vector<SaveResult> results = saver.SaveAll(outliers, {}, p, batch);
    ASSERT_EQ(results.size(), outliers.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].termination, SaveTermination::kCancelled) << i;
      EXPECT_FALSE(results[i].feasible) << i;
      EXPECT_EQ(results[i].adjusted, outliers[i]) << i;
    }
  }
}

TEST(AnytimeSave, AggressiveBatchDeadlineStaysWithinWallClockBound) {
  Relation data = MakeNoisyDataset(33);
  DistanceEvaluator ev(data.schema());

  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.save.kappa = 2;
  const std::int64_t deadline_ms = 150;
  opts.batch_deadline_ms = deadline_ms;

  const auto start = std::chrono::steady_clock::now();
  SavedDataset saved = SaveOutliers(data, ev, opts);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // Degradation is graceful: the call still succeeds and produces a full
  // set of records, each tagged with how its search ended.
  ASSERT_TRUE(saved.status.ok());
  ASSERT_EQ(saved.records.size(), saved.outlier_rows.size());
  ASSERT_GT(saved.records.size(), 3u);

  // Wall clock within 2x the deadline (generous absolute slack for slow or
  // sanitized CI machines — the index build is counted in, and the last
  // in-flight slice may straddle the deadline).
  EXPECT_LT(wall_ms, 2.0 * static_cast<double>(deadline_ms) + 500.0);

  // Every saved tuple must be genuinely feasible (>= eta epsilon-neighbors
  // against the inlier set), no matter how its search terminated.
  Relation inliers = data.Select(saved.inlier_rows);
  DiscSaver verifier(inliers, ev, opts.constraint);
  for (const OutlierRecord& rec : saved.records) {
    if (rec.disposition == OutlierDisposition::kSaved) {
      EXPECT_TRUE(verifier.bounds().IsFeasible(rec.adjusted))
          << "row " << rec.row;
    } else {
      EXPECT_EQ(rec.adjusted, data[rec.row]) << "row " << rec.row;
    }
  }

  // The tallies are consistent with the per-record terminations.
  std::size_t tallied = 0;
  for (SaveTermination t :
       {SaveTermination::kCompleted, SaveTermination::kVisitBudget,
        SaveTermination::kQueryBudget, SaveTermination::kDeadline,
        SaveTermination::kCancelled, SaveTermination::kInfeasible,
        SaveTermination::kFault}) {
    tallied += saved.CountTermination(t);
  }
  EXPECT_EQ(tallied, saved.records.size());
  if (saved.degraded()) {
    EXPECT_FALSE(saved.DegradationStatus().ok());
  } else {
    EXPECT_TRUE(saved.DegradationStatus().ok());
  }
}

TEST(AnytimeSave, SaveOutliersCancellationDegradesWithStatus) {
  Relation data = MakeNoisyDataset(34);
  DistanceEvaluator ev(data.schema());

  CancellationSource source;
  source.RequestCancel();  // cancelled before the pipeline even starts
  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.cancellation = source.token();

  SavedDataset saved = SaveOutliers(data, ev, opts);
  ASSERT_TRUE(saved.status.ok());  // degradation is not an error
  ASSERT_GT(saved.records.size(), 3u);
  EXPECT_TRUE(saved.degraded());
  EXPECT_EQ(saved.DegradationStatus().code(), StatusCode::kCancelled);
  EXPECT_EQ(saved.CountTermination(SaveTermination::kCancelled),
            saved.records.size());
  // Nothing may be half-adjusted: the repaired relation equals the input.
  for (std::size_t row = 0; row < data.size(); ++row) {
    EXPECT_EQ(saved.repaired[row], data[row]);
  }
  EXPECT_GT(saved.split_stats.index_queries, 0u);
}

TEST(AnytimeSave, SaveOutliersExactPathHonorsBatchCancellation) {
  // The exact path degrades through the same drain-and-skip policy.
  Relation data = MakeNoisyDataset(35);
  DistanceEvaluator ev(data.schema());

  CancellationSource source;
  source.RequestCancel();
  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.use_exact = true;
  opts.save.budget.max_visited_sets = 10'000;
  opts.cancellation = source.token();

  SavedDataset saved = SaveOutliers(data, ev, opts);
  ASSERT_TRUE(saved.status.ok());
  ASSERT_GT(saved.records.size(), 3u);
  EXPECT_EQ(saved.CountTermination(SaveTermination::kCancelled),
            saved.records.size());
  for (const OutlierRecord& rec : saved.records) {
    EXPECT_NE(rec.disposition, OutlierDisposition::kSaved);
    EXPECT_EQ(rec.adjusted, data[rec.row]);
  }
}

}  // namespace
}  // namespace disc
