// Ablations of the design choices DESIGN.md calls out, at dataset level:
//  (1) lower-bound pruning on/off — visited-set counts and wall time;
//  (2) revert refinement on/off — adjustment quality (attribute Jaccard,
//      #attrs, cost) and downstream DBSCAN F1;
//  (3) kappa restriction versus the full O(2^m n) traversal;
//  (4) KD-tree index versus the scalar brute-force reference inside DBSCAN.

#include "clustering/dbscan.h"
#include "core/disc_saver.h"
#include "eval/set_metrics.h"
#include "index/brute_force_index.h"
#include "index/index_factory.h"
#include "support.h"

namespace {

using namespace disc;
using namespace disc::bench;

struct AblationOutcome {
  double seconds = 0;
  double f1 = 0;
  double jaccard = 0;
  double mean_attrs = 0;
  double mean_cost = 0;
  std::size_t visited = 0;
  std::size_t saved = 0;
};

AblationOutcome RunVariant(const PaperDataset& ds,
                           const DistanceEvaluator& evaluator,
                           const SaveOptions& save) {
  AblationOutcome out;
  Timer timer;

  // Inline version of SaveOutliers that exposes per-save statistics.
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(ds.dirty, evaluator, ds.suggested.epsilon);
  InlierOutlierSplit split =
      SplitInliersOutliers(ds.dirty, *index, ds.suggested);
  Relation inliers = ds.dirty.Select(split.inlier_rows);
  DiscSaver saver(inliers, evaluator, ds.suggested);

  Relation repaired = ds.dirty;
  double jaccard_sum = 0;
  std::size_t jaccard_count = 0;
  double attr_sum = 0;
  double cost_sum = 0;
  for (std::size_t row : split.outlier_rows) {
    SaveResult res = saver.Save(ds.dirty[row], save);
    out.visited += res.stats.visited_sets;
    if (!res.feasible) continue;
    repaired[row] = res.adjusted;
    ++out.saved;
    attr_sum += static_cast<double>(res.adjusted_attributes.size());
    cost_sum += res.cost;
    AttributeSet truth;
    for (const CellError& e : ds.errors) {
      if (e.row == row) truth.insert(e.attribute);
    }
    if (!truth.empty()) {
      jaccard_sum += JaccardIndex(truth, res.adjusted_attributes);
      ++jaccard_count;
    }
  }
  out.seconds = timer.Seconds();
  out.f1 = ScoreDbscan(repaired, evaluator, ds.suggested, ds.labels).f1;
  if (out.saved > 0) {
    out.mean_attrs = attr_sum / static_cast<double>(out.saved);
    out.mean_cost = cost_sum / static_cast<double>(out.saved);
  }
  if (jaccard_count > 0) {
    out.jaccard = jaccard_sum / static_cast<double>(jaccard_count);
  }
  return out;
}

void PrintOutcome(const std::string& label, const AblationOutcome& o) {
  PrintRow({label, Fmt(o.seconds, 3), std::to_string(o.visited),
            std::to_string(o.saved), Fmt(o.f1), Fmt(o.jaccard),
            Fmt(o.mean_attrs, 2), Fmt(o.mean_cost, 1)},
           12);
}

}  // namespace

int main() {
  PaperDataset ds = MakePaperDataset("letter", 42, 0.05);
  DistanceEvaluator evaluator(ds.dirty.schema());
  std::printf("letter-shaped, n=%zu m=%zu, (eps=%.2f eta=%zu)\n",
              ds.dirty.size(), ds.dirty.arity(), ds.suggested.epsilon,
              ds.suggested.eta);

  PrintHeader("Ablation: lower-bound pruning (kappa=2)");
  PrintRow({"variant", "time(s)", "visited", "saved", "F1", "Jaccard",
            "#attrs", "cost"},
           12);
  {
    SaveOptions on;
    on.kappa = 2;
    SaveOptions off = on;
    off.use_lower_bound_pruning = false;
    PrintOutcome("pruning-on", RunVariant(ds, evaluator, on));
    PrintOutcome("pruning-off", RunVariant(ds, evaluator, off));
  }

  PrintHeader("Ablation: revert refinement (kappa=2)");
  PrintRow({"variant", "time(s)", "visited", "saved", "F1", "Jaccard",
            "#attrs", "cost"},
           12);
  {
    SaveOptions on;
    on.kappa = 2;
    SaveOptions off = on;
    off.use_revert_refinement = false;
    PrintOutcome("revert-on", RunVariant(ds, evaluator, on));
    PrintOutcome("revert-off", RunVariant(ds, evaluator, off));
  }

  PrintHeader("Ablation: kappa restriction");
  PrintRow({"variant", "time(s)", "visited", "saved", "F1", "Jaccard",
            "#attrs", "cost"},
           12);
  for (std::size_t kappa : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    SaveOptions opts;
    opts.kappa = kappa;
    PrintOutcome("kappa=" + std::to_string(kappa),
                 RunVariant(ds, evaluator, opts));
  }
  {
    // Full traversal on m=16 is O(2^16) sets per outlier — cap the visited
    // sets so the row finishes; the count column shows the blow-up.
    SaveOptions full;
    full.kappa = 0;
    full.budget.max_visited_sets = 3000;
    PrintOutcome("kappa=inf(cap)", RunVariant(ds, evaluator, full));
  }

  PrintHeader("Ablation: neighbor index inside DBSCAN");
  {
    PaperDataset gps = MakePaperDataset("gps", 42, 0.12);
    DistanceEvaluator gps_eval(gps.dirty.schema());
    PrintRow({"index", "time(s)", "F1"}, 14);
    {
      Timer t;
      Labels labels = Dbscan(gps.dirty, gps_eval,
                             {gps.suggested.epsilon, gps.suggested.eta});
      PrintRow({"kdtree", Fmt(t.Seconds(), 4),
                Fmt(PairCounting(labels, gps.labels).f1)},
               14);
    }
    {
      // The scalar reference: BruteForceIndex over the DistanceEvaluator,
      // timed on DBSCAN's all-pairs range counts against the kd-tree.
      BruteForceIndex brute(gps.dirty, gps_eval);
      auto fast = MakeNeighborIndex(gps.dirty, gps_eval,
                                    gps.suggested.epsilon);
      Timer t_brute;
      std::size_t hits_b = 0;
      for (std::size_t i = 0; i < gps.dirty.size(); ++i) {
        hits_b += brute.CountWithin(gps.dirty[i], gps.suggested.epsilon);
      }
      double brute_s = t_brute.Seconds();
      Timer t_fast;
      std::size_t hits_f = 0;
      for (std::size_t i = 0; i < gps.dirty.size(); ++i) {
        hits_f += fast->CountWithin(gps.dirty[i], gps.suggested.epsilon);
      }
      double fast_s = t_fast.Seconds();
      std::printf("all-pairs range-count: scalar reference (brute force) "
                  "%.4fs vs kd-tree %.4fs (same result: %s)\n",
                  brute_s, fast_s, hits_b == hits_f ? "yes" : "NO");
    }
  }

  std::printf(
      "\nExpected: pruning cuts visited sets at equal quality; revert "
      "refinement\nraises Jaccard and lowers #attrs at equal or lower cost; "
      "kappa trades saved\ncount for time; the kd-tree beats the scalar "
      "brute-force reference at identical\ncounts.\n");
  return 0;
}
