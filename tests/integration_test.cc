#include <gtest/gtest.h>

#include "clustering/dbscan.h"
#include "cleaning/dorc.h"
#include "core/outlier_saving.h"
#include "data/datasets.h"
#include "eval/clustering_metrics.h"
#include "eval/set_metrics.h"

namespace disc {
namespace {

/// End-to-end reproduction of the paper's central claim on a small dataset:
/// saving outliers with DISC improves DBSCAN clustering accuracy over the
/// raw dirty data, and does so at least as well as DORC's tuple
/// substitution.
class EndToEndTest : public testing::Test {
 protected:
  void SetUp() override {
    ds_ = MakePaperDataset("iris", 42);
    evaluator_ = std::make_unique<DistanceEvaluator>(ds_.dirty.schema());
  }

  double DbscanF1(const Relation& data) const {
    Labels labels = Dbscan(data, *evaluator_,
                           {ds_.suggested.epsilon, ds_.suggested.eta});
    return PairCounting(labels, ds_.labels).f1;
  }

  PaperDataset ds_;
  std::unique_ptr<DistanceEvaluator> evaluator_;
};

TEST_F(EndToEndTest, DiscImprovesDbscanOverRaw) {
  double raw_f1 = DbscanF1(ds_.dirty);

  OutlierSavingOptions opts;
  opts.constraint = ds_.suggested;
  // §1.2: trust repairs touching few attributes; leave natural outliers
  // (distant in every attribute) unchanged instead of forcing them into a
  // cluster — adjusting them would create wrong pairs and hurt accuracy.
  opts.save.kappa = 2;
  SavedDataset saved = SaveOutliers(ds_.dirty, *evaluator_, opts);
  double disc_f1 = DbscanF1(saved.repaired);

  EXPECT_GT(disc_f1, raw_f1) << "outlier saving must improve clustering";
}

TEST_F(EndToEndTest, DiscAtLeastMatchesDorc) {
  OutlierSavingOptions opts;
  opts.constraint = ds_.suggested;
  SavedDataset saved = SaveOutliers(ds_.dirty, *evaluator_, opts);
  double disc_f1 = DbscanF1(saved.repaired);

  DorcOptions dorc_opts;
  dorc_opts.constraint = ds_.suggested;
  Relation dorc = Dorc(ds_.dirty, *evaluator_, dorc_opts);
  double dorc_f1 = DbscanF1(dorc);

  EXPECT_GE(disc_f1, dorc_f1 - 0.02)
      << "value adjustment should not lose to tuple substitution";
}

TEST_F(EndToEndTest, AdjustedAttributesMatchInjectedErrors) {
  OutlierSavingOptions opts;
  opts.constraint = ds_.suggested;
  SavedDataset saved = SaveOutliers(ds_.dirty, *evaluator_, opts);

  // Jaccard between DISC's adjusted attributes and the injected error
  // attributes, averaged over saved dirty rows (the §4.3 measurement).
  double jaccard_sum = 0;
  std::size_t measured = 0;
  for (const OutlierRecord& rec : saved.records) {
    AttributeSet truth;
    for (const CellError& e : ds_.errors) {
      if (e.row == rec.row) truth.insert(e.attribute);
    }
    if (truth.empty()) continue;  // natural outlier, not an injected error
    if (rec.disposition != OutlierDisposition::kSaved) continue;
    jaccard_sum += JaccardIndex(truth, rec.adjusted_attributes);
    ++measured;
  }
  ASSERT_GT(measured, 0u);
  EXPECT_GT(jaccard_sum / static_cast<double>(measured), 0.5);
}

TEST_F(EndToEndTest, SavedCostsAreMinimal) {
  // DISC should adjust far fewer attributes than DORC's whole-tuple swap.
  OutlierSavingOptions opts;
  opts.constraint = ds_.suggested;
  SavedDataset saved = SaveOutliers(ds_.dirty, *evaluator_, opts);
  double mean_adjusted = saved.MeanAdjustedAttributes();
  ASSERT_GT(saved.CountDisposition(OutlierDisposition::kSaved), 0u);
  EXPECT_LT(mean_adjusted, 3.0);  // m = 4; whole-tuple would be ~4
}

TEST(EndToEndRepairQuality, DiscCloserToTruthThanDirty) {
  PaperDataset ds = MakePaperDataset("seeds", 11);
  DistanceEvaluator ev(ds.dirty.schema());
  OutlierSavingOptions opts;
  opts.constraint = ds.suggested;
  SavedDataset saved = SaveOutliers(ds.dirty, ev, opts);

  // Residual distance to ground truth over the injected dirty rows must
  // shrink after saving.
  double before = 0;
  double after = 0;
  for (std::size_t row : ds.dirty_rows) {
    before += ev.Distance(ds.dirty[row], ds.clean[row]);
    after += ev.Distance(saved.repaired[row], ds.clean[row]);
  }
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace disc
