// GPS trajectory repair: the running example of the paper's Figure 2.
//
// A trajectory of (Time, Longitude, Latitude) readings contains dirty
// outliers — a longitude spike (t13-style) and a wrong timestamp
// (t24-style) — plus natural outliers from another trajectory. DISC adjusts
// only the broken attribute of each dirty outlier and leaves the natural
// outliers unchanged, so the trajectory is no longer split into spurious
// segments.

#include <cstdio>

#include "clustering/dbscan.h"
#include "core/outlier_saving.h"
#include "data/datasets.h"
#include "eval/clustering_metrics.h"

int main() {
  using namespace disc;

  PaperDataset ds = MakePaperDataset("gps", /*seed=*/42, /*scale=*/0.1);
  DistanceEvaluator evaluator(ds.dirty.schema());
  std::printf("GPS trajectory: %zu points, %zu dirty outliers, "
              "%zu natural outliers, constraint (eps=%.2f, eta=%zu)\n",
              ds.dirty.size(), ds.dirty_rows.size(),
              ds.natural_outlier_rows.size(), ds.suggested.epsilon,
              ds.suggested.eta);

  // Segment (cluster) the raw trajectory.
  Labels raw = Dbscan(ds.dirty, evaluator,
                      {ds.suggested.epsilon, ds.suggested.eta});
  std::printf("raw      : %zu segments, %zu noise, F1 = %.4f\n",
              NumClusters(raw), NumNoise(raw),
              PairCounting(raw, ds.labels).f1);

  // Save outliers with a natural-outlier guard: only 1-2 attribute repairs
  // are trusted (errors hit one sensor at a time); the rest are flagged.
  OutlierSavingOptions options;
  options.constraint = ds.suggested;
  options.save.kappa = 2;
  SavedDataset saved = SaveOutliers(ds.dirty, evaluator, options);

  std::printf("saving   : %zu flagged, %zu saved, %zu left as natural, "
              "%zu infeasible\n",
              saved.outlier_rows.size(),
              saved.CountDisposition(OutlierDisposition::kSaved),
              saved.CountDisposition(OutlierDisposition::kNaturalOutlier),
              saved.CountDisposition(OutlierDisposition::kInfeasible));

  // Show a few concrete repairs, Figure-2 style.
  int shown = 0;
  for (const OutlierRecord& rec : saved.records) {
    if (rec.disposition != OutlierDisposition::kSaved || shown >= 3) continue;
    const Tuple& before = ds.dirty[rec.row];
    const Tuple& after = rec.adjusted;
    std::printf("  t%zu: (%.0f, %.1f, %.1f) -> (%.0f, %.1f, %.1f)  "
                "cost %.3f, %zu attribute(s)\n",
                rec.row, before[0].num(), before[1].num(), before[2].num(),
                after[0].num(), after[1].num(), after[2].num(), rec.cost,
                rec.adjusted_attributes.size());
    ++shown;
  }

  Labels repaired = Dbscan(saved.repaired, evaluator,
                           {ds.suggested.epsilon, ds.suggested.eta});
  std::printf("repaired : %zu segments, %zu noise, F1 = %.4f\n",
              NumClusters(repaired), NumNoise(repaired),
              PairCounting(repaired, ds.labels).f1);
  return 0;
}
