// Figure 6 reproduction: scalability in the number of tuples n on the
// Flight-shaped dataset (m = 3): clustering F1 after repair and the repair
// time, for DISC, the Exact algorithm, DORC, ERACER, HoloClean, Holistic.
//
// Expected shape (paper): DISC/ERACER/HoloClean time grows near-linearly;
// the pairwise DORC grows quadratically and hits the time cutoff first; the
// Exact algorithm beats DISC slightly on F1 at a much higher (still
// linear-in-n) time.

#include <optional>
#include <string>

#include "core/exact_saver.h"
#include "support.h"

namespace {

using namespace disc;
using namespace disc::bench;

constexpr double kCutoffSeconds = 60.0;

struct ExactOutcome {
  double f1 = 0;
  double seconds = 0;
  bool timed_out = false;
};

ExactOutcome RunExact(const PaperDataset& ds,
                      const DistanceEvaluator& evaluator) {
  ExactOutcome out;
  Timer timer;
  OutlierSavingOptions options;
  options.constraint = ds.suggested;
  options.use_exact = true;
  // Candidate budget keeps a single outlier from consuming the cutoff by
  // itself. With continuous domains d ≈ n, the optimal single-attribute
  // fix is explored within the first ~d candidates, so the budget mostly
  // trims the exhaustive tail (the paper's Exact shows the same trade:
  // better F1 at much higher time).
  options.save.budget.max_visited_sets = 25000;
  SavedDataset saved = SaveOutliers(ds.dirty, evaluator, options);
  out.seconds = timer.Seconds();
  out.timed_out = out.seconds > kCutoffSeconds;
  out.f1 = ScoreDbscan(saved.repaired, evaluator, ds.suggested, ds.labels).f1;
  return out;
}

/// One method's running cutoff: once a run has passed kCutoffSeconds, every
/// larger n prints ">cutoff" without running the method again.
struct Cutoff {
  bool passed = false;

  /// Times `run` unless the cutoff has passed; the seconds, or ">cutoff".
  template <typename Run>
  std::string Time(Run&& run) {
    if (passed) return ">cutoff";
    Timer timer;
    run();
    const double secs = timer.Seconds();
    passed = secs > kCutoffSeconds;
    return Fmt(secs, 3);
  }
};

}  // namespace

int main() {
  PrintHeader("Figure 6: scalability in n (Flight-shaped, m=3)");
  PrintRow({"n", "F1_DISC", "F1_Exact", "F1_DORC", "t_DISC", "us_DISC/o",
            "t_Exact", "t_DORC", "t_ERACER", "t_HoloCl", "t_Holist"});

  Cutoff disc_cut, exact_cut, dorc_cut, eracer_cut, holo_cut, holistic_cut;
  // Start at n = 200: below that, clusters hold fewer members than η = 31
  // and every method degenerates. Doubling up to the paper's 200,000 rows.
  for (double scale : {0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064,
                       0.128, 0.256, 0.512, 1.0}) {
    PaperDataset ds = MakePaperDataset("flight", 42, scale);
    DistanceEvaluator evaluator(ds.dirty.schema());

    // DISC, with its mean per-outlier search time. Only the methods
    // themselves are timed, never the scoring.
    std::optional<SavedDataset> disc;
    const std::string t_disc = disc_cut.Time([&] {
      OutlierSavingOptions options;
      options.constraint = ds.suggested;
      options.save.kappa = BenchKappaFor(ds.name);
      disc = SaveOutliers(ds.dirty, evaluator, options);
    });
    std::string f1_disc = "-";
    std::string us_disc = "-";
    if (disc.has_value()) {
      f1_disc = Fmt(
          ScoreDbscan(disc->repaired, evaluator, ds.suggested, ds.labels).f1);
      double search_ns = 0;
      for (const OutlierRecord& record : disc->records) {
        search_ns += static_cast<double>(record.stats.wall_nanos);
      }
      if (!disc->records.empty()) {
        us_disc = Fmt(search_ns / 1e3 / disc->records.size(), 1);
      }
    }

    std::string f1_exact = ">cutoff";
    std::string t_exact = ">cutoff";
    if (!exact_cut.passed) {
      ExactOutcome exact = RunExact(ds, evaluator);
      exact_cut.passed = exact.timed_out;
      if (!exact.timed_out) {
        f1_exact = Fmt(exact.f1);
        t_exact = Fmt(exact.seconds, 3);
      }
    }

    // DORC pairwise, with the paper-style cutoff once it explodes.
    std::optional<Relation> dorc;
    const std::string t_dorc = dorc_cut.Time([&] {
      DorcOptions dorc_opts;
      dorc_opts.constraint = ds.suggested;
      dorc = Dorc(ds.dirty, evaluator, dorc_opts);
    });
    const std::string f1_dorc =
        dorc.has_value()
            ? Fmt(ScoreDbscan(*dorc, evaluator, ds.suggested, ds.labels).f1)
            : "-";

    const std::string t_eracer =
        eracer_cut.Time([&] { (void)Eracer(ds.dirty, evaluator); });
    const std::string t_holo = holo_cut.Time([&] {
      HolocleanOptions hopts;
      hopts.constraint = ds.suggested;
      (void)Holoclean(ds.dirty, evaluator, hopts);
    });
    const std::string t_holistic =
        holistic_cut.Time([&] { (void)Holistic(ds.dirty, evaluator); });

    PrintRow({std::to_string(ds.dirty.size()), f1_disc, f1_exact, f1_dorc,
              t_disc, us_disc, t_exact, t_dorc, t_eracer, t_holo,
              t_holistic});
  }

  std::printf(
      "\nShape check vs paper Fig. 6: t_DORC grows ~quadratically in n (the "
      "published\nILP DORC additionally pays a large constant, which is what "
      "the paper's one-hour\ncutoff reflects); Exact's time dominates "
      "DISC's at comparable F1.\n");
  return 0;
}
