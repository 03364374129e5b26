#include "core/outlier_saving.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/save_journal.h"
#include "core/search_stats.h"
#include "index/index_factory.h"

namespace disc {

const char* OutlierDispositionName(OutlierDisposition d) {
  switch (d) {
    case OutlierDisposition::kSaved:
      return "saved";
    case OutlierDisposition::kNaturalOutlier:
      return "natural_outlier";
    case OutlierDisposition::kInfeasible:
      return "infeasible";
  }
  return "unknown";
}

SearchStats SavedDataset::stats() const {
  SearchStats total = split_stats;
  for (const OutlierRecord& rec : records) total.MergeFrom(rec.stats);
  return total;
}

std::size_t SavedDataset::CountDisposition(OutlierDisposition d) const {
  std::size_t count = 0;
  for (const OutlierRecord& rec : records) {
    if (rec.disposition == d) ++count;
  }
  return count;
}

std::size_t SavedDataset::CountTermination(SaveTermination t) const {
  std::size_t count = 0;
  for (const OutlierRecord& rec : records) {
    if (rec.termination == t) ++count;
  }
  return count;
}

bool SavedDataset::degraded() const {
  for (const OutlierRecord& rec : records) {
    if (rec.termination != SaveTermination::kCompleted &&
        rec.termination != SaveTermination::kInfeasible) {
      return true;
    }
  }
  return false;
}

Status SavedDataset::DegradationStatus() const {
  const std::size_t cancelled =
      CountTermination(SaveTermination::kCancelled);
  const std::size_t deadline = CountTermination(SaveTermination::kDeadline);
  const std::size_t budget = CountTermination(SaveTermination::kVisitBudget) +
                             CountTermination(SaveTermination::kQueryBudget);
  const std::size_t faulted = CountTermination(SaveTermination::kFault);
  if (cancelled == 0 && deadline == 0 && budget == 0 && faulted == 0) {
    return Status::OK();
  }
  std::string detail = std::to_string(cancelled) + " cancelled, " +
                       std::to_string(deadline) + " past deadline, " +
                       std::to_string(budget) + " out of budget, " +
                       std::to_string(faulted) + " faulted (of " +
                       std::to_string(records.size()) + " outliers)";
  if (cancelled > 0) return Status::Cancelled(detail);
  if (deadline > 0) return Status::DeadlineExceeded(detail);
  return Status::ResourceExhausted(detail);
}

double SavedDataset::MeanAdjustmentCost() const {
  double sum = 0;
  std::size_t saved = 0;
  for (const OutlierRecord& rec : records) {
    if (rec.disposition == OutlierDisposition::kSaved) {
      sum += rec.cost;
      ++saved;
    }
  }
  return saved == 0 ? 0 : sum / static_cast<double>(saved);
}

double SavedDataset::MeanAdjustedAttributes() const {
  double sum = 0;
  std::size_t saved = 0;
  for (const OutlierRecord& rec : records) {
    if (rec.disposition == OutlierDisposition::kSaved) {
      sum += static_cast<double>(rec.adjusted_attributes.size());
      ++saved;
    }
  }
  return saved == 0 ? 0 : sum / static_cast<double>(saved);
}

namespace {

/// Once-per-batch flush of the already-merged pipeline stats into the
/// registry (the only place this pipeline touches atomics; the searches
/// themselves count into plain per-search structs). Null registry = no-op.
void FlushBatchMetrics(MetricsRegistry* metrics, const SavedDataset& out) {
  if (metrics == nullptr) return;
  SearchStats search_total;
  for (const OutlierRecord& rec : out.records) {
    search_total.MergeFrom(rec.stats);
  }
  search_total.FlushTo(metrics);
  if (Counter* c = metrics->GetCounter("disc_save_batches_total")) c->Add(1);
  if (Counter* c = metrics->GetCounter("disc_save_outliers_total")) {
    if (!out.records.empty()) c->Add(out.records.size());
  }
  if (Counter* c = metrics->GetCounter("disc_split_index_queries_total")) {
    if (out.split_stats.index_queries > 0) {
      c->Add(out.split_stats.index_queries);
    }
  }
  // Per-disposition and per-termination tallies (empty ones unregistered).
  auto tally = [metrics](const std::string& name, std::size_t n) {
    if (n == 0) return;
    if (Counter* c = metrics->GetCounter(name)) c->Add(n);
  };
  constexpr OutlierDisposition kDispositions[] = {
      OutlierDisposition::kSaved, OutlierDisposition::kNaturalOutlier,
      OutlierDisposition::kInfeasible};
  for (OutlierDisposition d : kDispositions) {
    tally(std::string("disc_save_disposition_") + OutlierDispositionName(d) +
              "_total",
          out.CountDisposition(d));
  }
  constexpr SaveTermination kTerminations[] = {
      SaveTermination::kCompleted,   SaveTermination::kVisitBudget,
      SaveTermination::kQueryBudget, SaveTermination::kDeadline,
      SaveTermination::kCancelled,   SaveTermination::kInfeasible,
      SaveTermination::kFault};
  for (SaveTermination t : kTerminations) {
    tally(std::string("disc_save_termination_") + SaveTerminationName(t) +
              "_total",
          out.CountTermination(t));
  }
  if (Histogram* h = metrics->GetHistogram(
          "disc_save_search_wall_seconds",
          {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0})) {
    for (const OutlierRecord& rec : out.records) {
      // With tracing on, each bucket remembers a representative search's
      // trace id, so a slow bucket links straight to a slow span tree.
      h->ObserveWithExemplar(static_cast<double>(rec.stats.wall_nanos) * 1e-9,
                             rec.trace_id);
    }
  }
}

}  // namespace

SavedDataset SaveOutliers(const Relation& data,
                          const DistanceEvaluator& evaluator,
                          const OutlierSavingOptions& options) {
  // The batch clock starts here, so the deadline also covers the index
  // build and the inlier/outlier split below — the caller's wall-clock
  // budget is for the whole pipeline, not just the searches.
  const Deadline batch_deadline =
      options.batch_deadline_ms > 0
          ? Deadline::AfterMillis(options.batch_deadline_ms)
          : Deadline::Infinite();

  SavedDataset out;
  out.repaired = data;

  DISC_LOG(INFO)
      .Uint("rows", data.size())
      .Uint("arity", data.arity())
      .Num("epsilon", options.constraint.epsilon)
      .Uint("eta", options.constraint.eta)
      .Uint("threads", options.num_threads)
      .Bool("exact", options.use_exact)
      .Int("deadline_ms", options.batch_deadline_ms)
      << "outlier saving pipeline started";

  // Wider schemas would silently overflow the AttributeSet bookkeeping of
  // the search; reject them up front.
  out.status = ValidateSaveArity(data.arity());
  if (!out.status.ok()) {
    DISC_LOG(ERROR).Str("status", out.status.ToString())
        << "outlier saving rejected its input";
    return out;
  }

  // Fault site: a failed index build is a hard pipeline error (nothing to
  // degrade to — no index means no split, no searches).
  out.status = DISC_FAULT_POINT("pipeline.index_build");
  if (!out.status.ok()) {
    DISC_LOG(ERROR).Str("status", out.status.ToString())
        << "index build failed";
    return out;
  }

  // Split into inliers r and outliers s against the full dataset. The
  // stats decorator meters the split phase so callers can see how the
  // query budget divides between detection and saving.
  const std::uint64_t split_start_ns = TraceNowNs();
  std::unique_ptr<NeighborIndex> full_index =
      MakeNeighborIndex(data, evaluator, options.constraint.epsilon);
  StatsNeighborIndex counted_index(*full_index, &out.split_stats);
  InlierOutlierSplit split =
      SplitInliersOutliers(data, counted_index, options.constraint);
  out.split_stats.start_ns = split_start_ns;
  out.split_stats.wall_nanos = TraceNowNs() - split_start_ns;
  out.inlier_rows = split.inlier_rows;
  out.outlier_rows = split.outlier_rows;
  if (options.trace != nullptr) {
    TraceSpan span;
    span.name = "split";
    span.start_ns = out.split_stats.start_ns;
    span.duration_ns = out.split_stats.wall_nanos;
    span.Int("inliers", out.inlier_rows.size())
        .Int("outliers", out.outlier_rows.size());
    out.split_stats.AttachTo(&span);
    options.trace->Emit(span);
  }
  DISC_LOG(INFO)
      .Uint("inliers", out.inlier_rows.size())
      .Uint("outliers", out.outlier_rows.size())
      .Uint("index_queries", out.split_stats.index_queries)
      << "inlier/outlier split done";
  if (split.outlier_rows.empty()) {
    FlushBatchMetrics(options.metrics, out);
    return out;
  }

  Relation inliers = data.Select(split.inlier_rows);

  BatchBudget batch;
  batch.deadline = batch_deadline;
  batch.cancellation = options.cancellation;

  // Each outlier's search is independent against the fixed inlier set. Both
  // savers run the one batch loop (SaveBatch); the DISC batch fans out
  // across a work-stealing pool (cost-ordered, hardest searches first), and
  // results come back in input order either way, so the records are
  // bit-identical for every thread count.
  std::vector<Tuple> outlier_tuples;
  outlier_tuples.reserve(split.outlier_rows.size());
  for (std::size_t row : split.outlier_rows) {
    outlier_tuples.push_back(data[row]);
  }
  std::vector<SaveResult> results;
  if (options.use_exact) {
    const ExactSaver saver(inliers, evaluator, options.constraint);
    results = SaveBatch(
        outlier_tuples,
        [&](const Tuple& outlier, Deadline deadline,
            const CancellationToken& cancellation, WorkStealingPool*,
            SearchObserver* observer) {
          return saver.Save(outlier, options.save, deadline, cancellation,
                            observer);
        },
        /*estimate=*/nullptr, /*exact=*/true, /*pool=*/nullptr, batch,
        options.trace, /*recovery=*/{}, options.explain);
  } else {
    std::size_t threads = options.num_threads == 0
                              ? WorkStealingPool::DefaultThreadCount()
                              : options.num_threads;
    std::unique_ptr<WorkStealingPool> pool;
    if (threads > 1 && outlier_tuples.size() > 1) {
      pool = std::make_unique<WorkStealingPool>(threads);
    }
    // Build the saver once, its δ_η cache on the batch pool; save each
    // outlier against the fixed inlier set.
    DiscSaver disc_saver(inliers, evaluator, options.constraint, pool.get());
    // Crash-safety plumbing (DESIGN.md §11): optionally restore journaled
    // verdicts from a previous interrupted run, then append this run's
    // definitive results to the same journal. All-default BatchRecovery
    // (no journal path) keeps SaveAll on its strict no-op path.
    BatchRecovery recovery;
    SaveJournal resume_journal;
    SaveJournalWriter journal_writer;
    if (!options.journal_path.empty()) {
      SaveJournalHeader header;
      header.n_outliers = outlier_tuples.size();
      header.arity = data.arity();
      header.epsilon = options.constraint.epsilon;
      header.eta = options.constraint.eta;
      header.kappa = options.save.kappa;
      bool have_resume = false;
      if (options.resume_from_journal) {
        Result<SaveJournal> loaded = ReadSaveJournal(options.journal_path);
        if (loaded.ok()) {
          out.status =
              loaded.value().Matches(outlier_tuples.size(), data.arity(),
                                     options.constraint, options.save.kappa);
          if (!out.status.ok()) {
            DISC_LOG(ERROR).Str("status", out.status.ToString())
                << "save journal does not match this batch";
            return out;
          }
          resume_journal = std::move(loaded).value();
          have_resume = true;
        } else if (loaded.status().code() != StatusCode::kNotFound) {
          out.status = loaded.status();
          DISC_LOG(ERROR).Str("status", out.status.ToString())
              << "save journal unreadable";
          return out;
        }
        // NotFound: no previous run to resume — start fresh.
      }
      out.status = have_resume
                       ? journal_writer.OpenAppend(options.journal_path, header)
                       : journal_writer.Open(options.journal_path, header);
      if (!out.status.ok()) {
        DISC_LOG(ERROR).Str("status", out.status.ToString())
            << "save journal could not be opened";
        return out;
      }
      recovery.journal = &journal_writer;
      if (have_resume) {
        recovery.resume = &resume_journal;
        DISC_LOG(INFO)
            .Str("journal", options.journal_path)
            .Uint("restored", resume_journal.entries.size())
            << "resuming batch from save journal";
      }
    }

    results =
        disc_saver.SaveAll(outlier_tuples, options.save, pool.get(), batch,
                           options.trace, recovery, options.explain);
  }

  out.records.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // A feasible adjustment needing more attributes than trusted marks a
    // natural outlier (paper §1.2 — flag rather than over-adjust). An
    // unsaved result already holds the untouched tuple at zero cost.
    const OutlierDisposition disposition =
        results[i].feasible         ? OutlierDisposition::kSaved
        : results[i].kappa_exceeded ? OutlierDisposition::kNaturalOutlier
                                    : OutlierDisposition::kInfeasible;
    OutlierRecord rec{std::move(results[i]), split.outlier_rows[i],
                      disposition};
    if (rec.feasible) out.repaired[rec.row] = rec.adjusted;
    TraceRecorder* recorder = GlobalTraceRecorder();
    if (options.trace != nullptr ||
        (recorder != nullptr && rec.trace_id != 0)) {
      // The root of the outlier's span tree: the search span and its phase
      // children (emitted by the batch drain) parent up to this span via
      // DeriveSpanId(trace_id, kRoot, 0).
      TraceSpan span;
      span.name = "save_outlier";
      span.start_ns = rec.stats.start_ns;
      span.duration_ns = rec.stats.wall_nanos;
      span.trace_id = rec.trace_id;
      span.span_id = rec.trace_id != 0
                         ? DeriveSpanId(rec.trace_id, TraceSpanKind::kRoot, 0)
                         : 0;
      span.parent_id = 0;
      span.Int("row", rec.row)
          .Str("disposition", OutlierDispositionName(rec.disposition))
          .Str("termination", SaveTerminationName(rec.termination))
          .Num("cost", rec.cost)
          .Int("adjusted_attributes", rec.adjusted_attributes.size());
      rec.stats.AttachTo(&span);
      if (recorder != nullptr && rec.trace_id != 0) {
        recorder->RecordFinished(span);
      }
      if (options.trace != nullptr) options.trace->Emit(span);
    }
    out.records.push_back(std::move(rec));
  }
  FlushBatchMetrics(options.metrics, out);
  DISC_LOG(INFO)
      .Uint("saved", out.CountDisposition(OutlierDisposition::kSaved))
      .Uint("natural",
            out.CountDisposition(OutlierDisposition::kNaturalOutlier))
      .Uint("infeasible",
            out.CountDisposition(OutlierDisposition::kInfeasible))
      .Bool("degraded", out.degraded())
      << "outlier saving pipeline finished";
  return out;
}

}  // namespace disc
