// Determinism and thread-safety of the parallel batch saving path
// (DiscSaver::SaveAll / SaveOutliers with num_threads > 1). The TSan CI job
// runs exactly this binary plus thread_pool_test to race-check the shared
// read-only index state.

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "index/index_factory.h"

namespace disc {
namespace {

/// Seeded noisy dataset: three Gaussian clusters in 4-D with a batch of
/// rows corrupted on one or two attributes, plus a couple of natural
/// outliers displaced in every attribute.
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
    if (row % 22 == 3) {
      mixture.data[row][(a + 2) % 4] = Value(-18.0 - rng.Uniform() * 5.0);
    }
  }
  AppendNaturalOutliers(&mixture, 2, 60.0, seed + 2);
  return std::move(mixture.data);
}

OutlierSavingOptions BaseOptions() {
  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.save.kappa = 2;
  return opts;
}

void ExpectIdenticalRecords(const SavedDataset& a, const SavedDataset& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const OutlierRecord& ra = a.records[i];
    const OutlierRecord& rb = b.records[i];
    EXPECT_EQ(ra.row, rb.row);
    EXPECT_EQ(ra.disposition, rb.disposition) << "record " << i;
    EXPECT_EQ(ra.adjusted, rb.adjusted) << "record " << i;
    EXPECT_EQ(ra.cost, rb.cost) << "record " << i;  // bit-identical, not near
    EXPECT_EQ(ra.adjusted_attributes.bits(), rb.adjusted_attributes.bits());
    EXPECT_EQ(ra.lower_bound, rb.lower_bound);
    EXPECT_EQ(ra.termination, rb.termination) << "record " << i;
    EXPECT_EQ(ra.stats.index_queries, rb.stats.index_queries) << "record " << i;
  }
  ASSERT_EQ(a.repaired.size(), b.repaired.size());
  for (std::size_t row = 0; row < a.repaired.size(); ++row) {
    EXPECT_EQ(a.repaired[row], b.repaired[row]) << "row " << row;
  }
}

TEST(ParallelSave, SaveOutliersBitIdenticalAcrossThreadCounts) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  DistanceEvaluator evaluator(data.schema());

  OutlierSavingOptions opts = BaseOptions();
  opts.num_threads = 1;
  SavedDataset sequential = SaveOutliers(data, evaluator, opts);
  ASSERT_TRUE(sequential.status.ok());
  ASSERT_GT(sequential.records.size(), 10u)
      << "scenario must produce a real outlier batch";
  EXPECT_GT(sequential.CountDisposition(OutlierDisposition::kSaved), 0u);

  for (std::size_t threads : {2u, 8u}) {
    opts.num_threads = threads;
    SavedDataset parallel = SaveOutliers(data, evaluator, opts);
    ASSERT_TRUE(parallel.status.ok());
    ExpectIdenticalRecords(sequential, parallel);
  }
}

TEST(ParallelSave, SaveAllMatchesIndividualSaves) {
  Relation data = MakeNoisyDataset(/*seed=*/123);
  DistanceEvaluator evaluator(data.schema());
  DistanceConstraint constraint{1.6, 5};

  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  ASSERT_GT(split.outlier_rows.size(), 5u);
  Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);

  DiscSaver saver(inliers, evaluator, constraint);
  SaveOptions options;
  options.kappa = 2;

  WorkStealingPool pool(4);
  std::vector<SaveResult> batch = saver.SaveAll(outliers, options, &pool);
  ASSERT_EQ(batch.size(), outliers.size());
  for (std::size_t i = 0; i < outliers.size(); ++i) {
    SaveResult single = saver.Save(outliers[i], options);
    EXPECT_EQ(batch[i].feasible, single.feasible) << "outlier " << i;
    EXPECT_EQ(batch[i].adjusted, single.adjusted) << "outlier " << i;
    EXPECT_EQ(batch[i].cost, single.cost) << "outlier " << i;
    EXPECT_EQ(batch[i].adjusted_attributes.bits(),
              single.adjusted_attributes.bits());
    EXPECT_EQ(batch[i].kappa_exceeded, single.kappa_exceeded);
  }
}

TEST(ParallelSave, SaveAllWithoutPoolIsSequentialPath) {
  Relation data = MakeNoisyDataset(/*seed=*/55);
  DistanceEvaluator evaluator(data.schema());
  DistanceConstraint constraint{1.6, 5};
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);

  DiscSaver saver(inliers, evaluator, constraint);
  std::vector<SaveResult> no_pool = saver.SaveAll(outliers);
  WorkStealingPool pool(2);
  std::vector<SaveResult> with_pool = saver.SaveAll(outliers, {}, &pool);
  ASSERT_EQ(no_pool.size(), with_pool.size());
  for (std::size_t i = 0; i < no_pool.size(); ++i) {
    EXPECT_EQ(no_pool[i].adjusted, with_pool[i].adjusted);
    EXPECT_EQ(no_pool[i].cost, with_pool[i].cost);
  }
}

TEST(ParallelSave, ConcurrentSavesOnSharedSaver) {
  // Many threads hammering one DiscSaver directly — the const-thread-safety
  // contract the TSan job verifies (shared NeighborIndex, KthNeighborCache
  // and BoundsEngine, per-call SearchState).
  Relation data = MakeNoisyDataset(/*seed=*/7);
  DistanceEvaluator evaluator(data.schema());
  DistanceConstraint constraint{1.6, 5};
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  Relation inliers = data.Select(split.inlier_rows);
  ASSERT_GT(split.outlier_rows.size(), 0u);
  const Tuple outlier = data[split.outlier_rows[0]];

  DiscSaver saver(inliers, evaluator, constraint);
  SaveOptions options;
  options.kappa = 2;
  SaveResult expected = saver.Save(outlier, options);

  ThreadPool pool(8);
  std::vector<std::future<SaveResult>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit(
        [&saver, &outlier, &options] { return saver.Save(outlier, options); }));
  }
  for (auto& f : futures) {
    SaveResult got = f.get();
    EXPECT_EQ(got.feasible, expected.feasible);
    EXPECT_EQ(got.adjusted, expected.adjusted);
    EXPECT_EQ(got.cost, expected.cost);
  }
}

TEST(ParallelSave, ZeroThreadsMeansHardwareConcurrency) {
  Relation data = MakeNoisyDataset(/*seed=*/31);
  DistanceEvaluator evaluator(data.schema());
  OutlierSavingOptions opts = BaseOptions();
  opts.num_threads = 1;
  SavedDataset sequential = SaveOutliers(data, evaluator, opts);
  opts.num_threads = 0;  // auto
  SavedDataset automatic = SaveOutliers(data, evaluator, opts);
  ASSERT_TRUE(automatic.status.ok());
  ExpectIdenticalRecords(sequential, automatic);
}

TEST(ParallelSave, WideSchemaRejectedWithStatus) {
  // kMaxSaveableAttributes is the AttributeSet bitmask width; anything wider
  // must be rejected, not silently truncated (the old ChangedAttributes
  // behaviour).
  const std::size_t arity = kMaxSaveableAttributes + 6;
  Relation wide(Schema::Numeric(arity));
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    std::vector<double> values(arity);
    for (double& v : values) v = rng.Gaussian(0, 1);
    wide.AppendUnchecked(Tuple::FromDoubles(values));
  }
  DistanceEvaluator evaluator(wide.schema());
  OutlierSavingOptions opts;
  opts.constraint = {0.5, 3};
  SavedDataset out = SaveOutliers(wide, evaluator, opts);
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.records.empty());
  ASSERT_EQ(out.repaired.size(), wide.size());
  for (std::size_t row = 0; row < wide.size(); ++row) {
    EXPECT_EQ(out.repaired[row], wide[row]);
  }
}

TEST(ParallelSave, ValidateSaveArityBoundary) {
  EXPECT_TRUE(ValidateSaveArity(0).ok());
  // Exactly at AttributeSet::kCapacity must pass — the cap is inclusive.
  static_assert(kMaxSaveableAttributes == AttributeSet::kCapacity);
  EXPECT_TRUE(ValidateSaveArity(AttributeSet::kCapacity).ok());
  Status over = ValidateSaveArity(AttributeSet::kCapacity + 1);
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kInvalidArgument);
  // The message must name both the offending arity and the capacity so the
  // rejection is actionable without reading the source.
  EXPECT_NE(over.message().find(std::to_string(AttributeSet::kCapacity)),
            std::string::npos)
      << over.message();
  EXPECT_NE(over.message().find(std::to_string(AttributeSet::kCapacity + 1)),
            std::string::npos)
      << over.message();
}

}  // namespace
}  // namespace disc
