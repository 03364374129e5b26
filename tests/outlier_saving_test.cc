#include "core/outlier_saving.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/metrics.h"
#include "common/random.h"
#include "data/generators.h"
#include "index/index_factory.h"

namespace disc {
namespace {

/// Two well-separated clusters with a few single-attribute errors and one
/// all-attribute natural outlier.
struct Scenario {
  Relation data;
  std::vector<std::size_t> dirty_rows;
  std::size_t natural_row = 0;
};

Scenario MakeScenario(std::uint64_t seed = 44) {
  Rng rng(seed);
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 60; ++i) {
    r.AppendUnchecked(
        Tuple::Numeric({rng.Gaussian(0, 0.6), rng.Gaussian(0, 0.6)}));
  }
  for (int i = 0; i < 60; ++i) {
    r.AppendUnchecked(
        Tuple::Numeric({rng.Gaussian(12, 0.6), rng.Gaussian(0, 0.6)}));
  }
  Scenario s;
  // Dirty outliers: one broken attribute each.
  s.dirty_rows = {5, 70};
  r[5][1] = Value(30.0);    // cluster-0 point, y spiked
  r[70][1] = Value(-25.0);  // cluster-1 point, y spiked
  // Natural outlier: both attributes far away.
  r.AppendUnchecked(Tuple::Numeric({-40, 40}));
  s.natural_row = r.size() - 1;
  s.data = std::move(r);
  return s;
}

OutlierSavingOptions DefaultOptions() {
  OutlierSavingOptions opts;
  opts.constraint = {1.5, 5};
  return opts;
}

TEST(SaveOutliers, DetectsInjectedOutliers) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  SavedDataset out = SaveOutliers(s.data, ev, DefaultOptions());
  // All three planted outliers must be flagged.
  for (std::size_t row : s.dirty_rows) {
    EXPECT_NE(std::find(out.outlier_rows.begin(), out.outlier_rows.end(), row),
              out.outlier_rows.end())
        << "dirty row " << row << " not flagged";
  }
  EXPECT_NE(std::find(out.outlier_rows.begin(), out.outlier_rows.end(),
                      s.natural_row),
            out.outlier_rows.end());
}

TEST(SaveOutliers, SavedTuplesSatisfyConstraint) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  OutlierSavingOptions opts = DefaultOptions();
  SavedDataset out = SaveOutliers(s.data, ev, opts);

  // Every saved tuple must satisfy the constraint within the repaired data.
  auto index = MakeNeighborIndex(out.repaired, ev, opts.constraint.epsilon);
  for (const OutlierRecord& rec : out.records) {
    if (rec.disposition == OutlierDisposition::kSaved) {
      EXPECT_TRUE(
          SatisfiesConstraint(*index, out.repaired[rec.row], opts.constraint))
          << "row " << rec.row;
    }
  }
}

TEST(SaveOutliers, DirtyOutliersSavedWithOneAttribute) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  SavedDataset out = SaveOutliers(s.data, ev, DefaultOptions());
  for (const OutlierRecord& rec : out.records) {
    if (rec.row == 5 || rec.row == 70) {
      EXPECT_EQ(rec.disposition, OutlierDisposition::kSaved);
      // The broken attribute must be adjusted; DISC minimizes distance, so
      // any additional tweak on the clean attribute stays small.
      EXPECT_TRUE(rec.adjusted_attributes.contains(1)) << "row " << rec.row;
      EXPECT_LT(std::fabs(rec.adjusted[0].num() - s.data[rec.row][0].num()),
                2.0)
          << "row " << rec.row;
    }
  }
}

TEST(SaveOutliers, NaturalThresholdLeavesNaturalUnchanged) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  // κ is the one attribute budget of both paths: the DISC search optimizes
  // within it, the exact path flags an optimum that exceeds it.
  for (bool exact : {false, true}) {
    SCOPED_TRACE(exact ? "exact" : "disc");
    OutlierSavingOptions opts = DefaultOptions();
    opts.save.kappa = 1;  // trust only 1-attribute repairs
    opts.use_exact = exact;
    if (exact) opts.save.budget.max_visited_sets = 2000000;
    SavedDataset out = SaveOutliers(s.data, ev, opts);
    ASSERT_FALSE(out.records.empty());
    for (const OutlierRecord& rec : out.records) {
      EXPECT_LE(rec.adjusted_attributes.size(), 1u) << "row " << rec.row;
      std::size_t differing = 0;
      for (std::size_t a = 0; a < s.data.arity(); ++a) {
        if (!(out.repaired[rec.row][a] == s.data[rec.row][a])) ++differing;
      }
      EXPECT_LE(differing, 1u) << "row " << rec.row;
      if (rec.row == s.natural_row) {
        EXPECT_EQ(rec.disposition, OutlierDisposition::kNaturalOutlier);
        EXPECT_EQ(out.repaired[rec.row], s.data[rec.row]);
      }
    }
  }
}

TEST(SaveOutliers, WithoutThresholdNaturalGetsAdjusted) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  SavedDataset out = SaveOutliers(s.data, ev, DefaultOptions());
  bool found = false;
  for (const OutlierRecord& rec : out.records) {
    if (rec.row == s.natural_row &&
        rec.disposition == OutlierDisposition::kSaved) {
      found = true;
      EXPECT_EQ(rec.adjusted_attributes.size(), 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SaveOutliers, InliersUntouched) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  SavedDataset out = SaveOutliers(s.data, ev, DefaultOptions());
  for (std::size_t row : out.inlier_rows) {
    EXPECT_EQ(out.repaired[row], s.data[row]);
  }
}

TEST(SaveOutliers, ExactModeAgreesOnFeasibility) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  OutlierSavingOptions approx = DefaultOptions();
  OutlierSavingOptions exact = DefaultOptions();
  exact.use_exact = true;
  exact.save.budget.max_visited_sets = 2000000;
  SavedDataset a = SaveOutliers(s.data, ev, approx);
  SavedDataset b = SaveOutliers(s.data, ev, exact);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    // Exact's optimum can only be cheaper.
    if (a.records[i].disposition == OutlierDisposition::kSaved &&
        b.records[i].disposition == OutlierDisposition::kSaved) {
      EXPECT_LE(b.records[i].cost, a.records[i].cost + 1e-9);
    }
  }
}

TEST(SaveOutliers, ExactPathIssuesNoKnnQuery) {
  // The exact path builds only its ExactSaver: no DISC saver, so no kNN
  // cache and no kNN query. Its split and feasibility checks still query
  // the kd-tree, which the count counter shows.
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  OutlierSavingOptions opts = DefaultOptions();
  opts.use_exact = true;
  opts.save.budget.max_visited_sets = 2000000;
  MetricsRegistry registry;
  AttachGlobalMetrics(&registry);
  SavedDataset out = SaveOutliers(s.data, ev, opts);
  AttachGlobalMetrics(nullptr);
  ASSERT_FALSE(out.records.empty());
  EXPECT_GT(
      registry.GetCounter("disc_index_kd_tree_count_queries_total")->Value(),
      0u);
  EXPECT_EQ(
      registry.GetCounter("disc_index_kd_tree_knn_queries_total")->Value(),
      0u);
}

TEST(SaveOutliers, StatsHelpers) {
  Scenario s = MakeScenario();
  DistanceEvaluator ev(s.data.schema());
  SavedDataset out = SaveOutliers(s.data, ev, DefaultOptions());
  std::size_t saved = out.CountDisposition(OutlierDisposition::kSaved);
  EXPECT_GT(saved, 0u);
  EXPECT_GT(out.MeanAdjustmentCost(), 0.0);
  EXPECT_GE(out.MeanAdjustedAttributes(), 1.0);
}

TEST(SaveOutliers, CleanDataIsNoOp) {
  Rng rng(50);
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 80; ++i) {
    r.AppendUnchecked(
        Tuple::Numeric({rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)}));
  }
  DistanceEvaluator ev(r.schema());
  OutlierSavingOptions opts;
  opts.constraint = {2.0, 4};
  SavedDataset out = SaveOutliers(r, ev, opts);
  EXPECT_TRUE(out.outlier_rows.empty());
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(out.repaired[i], r[i]);
  }
}

TEST(SaveOutliers, EmptyRelation) {
  Relation r(Schema::Numeric(2));
  DistanceEvaluator ev(r.schema());
  OutlierSavingOptions opts;
  SavedDataset out = SaveOutliers(r, ev, opts);
  EXPECT_TRUE(out.records.empty());
  EXPECT_TRUE(out.repaired.empty());
}

}  // namespace
}  // namespace disc
