// perfbench_disc — the DISC pipeline benchmark.
//
//   perfbench_disc --workload NAME --seed N --seconds S --trace 0|1
//                  [--trace-out PATH]
//
// Generates the named workload from the seed (generator.h) and hands the
// program only CSV text. With --trace 0 it repeats the pipeline a user runs,
// untraced,
//     ParseCsv → SaveOutliers → Dbscan(repaired, ε, η) → PairCounting
// for S seconds and reports the end-to-end metrics: timings as the best
// repetition (per outlier, for the search percentiles), set-up as the median
// repetition, quality from the output. With --trace 1 it alternates untraced
// passes with passes that make the same pipeline's calls into each layer's
// public functions, each call wrapped in a benchmark-side span (spans.h),
// then runs the layer probes (bound and kernel samples, the 1-worker
// reference, the observer A/B) and reports the per-layer metrics with the
// two accounting identities and the tracing overhead.
//
// Every run checks the outputs (checks.h) outside the timed region. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. The exit code is 0 only when every
// check passed; usage and setup errors exit 2 without a result line.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "clustering/dbscan.h"
#include "common/cpu_features.h"
#include "common/csv.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "constraints/distance_constraint.h"
#include "core/bounds.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/search_budget.h"
#include "core/search_distance_cache.h"
#include "core/search_stats.h"
#include "distance/columnar.h"
#include "eval/clustering_metrics.h"
#include "generator.h"
#include "index/index_factory.h"
#include "index/kth_neighbor_cache.h"
#include "obs/explain.h"
#include "obs/progress.h"
#include "rng.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using disc::TraceNowNs;

constexpr std::size_t kMinRepetitions = 3;
/// Outliers and attribute sets in the seeded bound-call sample.
constexpr std::size_t kBoundSampleOutliers = 24;
constexpr std::size_t kBoundSampleSets = 16;
/// Rows in the brute-force density probe.
constexpr std::size_t kDensitySampleRows = 128;

double Sec(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, end);
}

// ---------------------------------------------------------------------------
// Observers of the served workload
// ---------------------------------------------------------------------------

/// Keeps every span the pipeline emits, as an in-process consumer would.
class MemoryTraceSink : public disc::TraceSink {
 public:
  void Emit(const disc::TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<disc::TraceSpan> spans_;
};

/// Keeps every decision log the pipeline emits.
class MemoryExplainSink : public disc::ExplainSink {
 public:
  void Emit(const disc::ExplainSearchLog& log) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_ += log.events.size();
    logs_.push_back(log);
  }
  std::uint64_t events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.clear();
    events_ = 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<disc::ExplainSearchLog> logs_;
  std::uint64_t events_ = 0;
};

/// Every observer `disc_cli --serve` attaches (the HTTP server only reads
/// them, so it is left out) plus in-memory trace and explain sinks.
/// Attached for the object's lifetime.
class ServedObservers {
 public:
  ServedObservers() {
    disc::AttachGlobalMetrics(&metrics_);
    disc::AttachGlobalProgress(&progress_);
    disc::AttachGlobalTraceRecorder(&recorder_);
    disc::AttachGlobalWallProfiler(&profiler_);
    disc::AttachGlobalExplainRecorder(&explain_recorder_);
  }
  ~ServedObservers() {
    disc::AttachGlobalExplainRecorder(nullptr);
    disc::AttachGlobalWallProfiler(nullptr);
    disc::AttachGlobalTraceRecorder(nullptr);
    disc::AttachGlobalProgress(nullptr);
    disc::AttachGlobalMetrics(nullptr);
  }
  ServedObservers(const ServedObservers&) = delete;
  ServedObservers& operator=(const ServedObservers&) = delete;

  void Wire(disc::OutlierSavingOptions* options) {
    options->metrics = &metrics_;
    options->trace = &trace_;
    options->explain = &explain_;
  }
  void ClearSinks() {
    trace_.Clear();
    explain_.Clear();
  }
  std::size_t spans() const { return trace_.size(); }
  std::uint64_t explain_events() const { return explain_.events(); }

 private:
  disc::MetricsRegistry metrics_;
  disc::ProgressRegistry progress_;
  disc::TraceRecorder recorder_;
  disc::WallPhaseProfiler profiler_;
  disc::ExplainRecorder explain_recorder_;
  MemoryTraceSink trace_;
  MemoryExplainSink explain_;
};

// ---------------------------------------------------------------------------
// The untraced pipeline
// ---------------------------------------------------------------------------

disc::OutlierSavingOptions PipelineOptions(const Workload& w,
                                           ServedObservers* observers) {
  disc::OutlierSavingOptions options;
  options.constraint = {w.epsilon, w.eta};
  options.save.kappa = w.kappa;
  options.num_threads = w.workers;
  if (observers != nullptr) observers->Wire(&options);
  return options;
}

struct PipelineRep {
  std::string error;  ///< non-empty when the pipeline could not run
  double pipeline_s = 0;
  double setup_s = 0;
  double save_outliers_per_s = 0;
  std::vector<double> search_ms;
  double f1 = 0;
  disc::SavedDataset saved;
};

/// One timed pass of the user pipeline. Setup ends where the earliest
/// search starts (OutlierRecord::stats.start_ns, same clock as TraceNowNs).
PipelineRep RunPipeline(const Workload& w, const std::string& csv,
                        const std::vector<int>& truth,
                        ServedObservers* observers) {
  PipelineRep rep;
  const disc::OutlierSavingOptions options = PipelineOptions(w, observers);
  const std::uint64_t t0 = TraceNowNs();
  disc::Result<disc::Relation> parsed = disc::ParseCsv(csv);
  if (!parsed.ok()) {
    rep.error = "ParseCsv: " + parsed.status().ToString();
    return rep;
  }
  const disc::Relation data = std::move(parsed).value();
  const disc::DistanceEvaluator evaluator(data.schema());
  rep.saved = disc::SaveOutliers(data, evaluator, options);
  const std::uint64_t t_saved = TraceNowNs();
  const disc::Labels labels =
      disc::Dbscan(rep.saved.repaired, evaluator, {w.epsilon, w.eta});
  const disc::PairCountingScores scores = disc::PairCounting(labels, truth);
  const std::uint64_t t_end = TraceNowNs();

  if (!rep.saved.status.ok()) {
    rep.error = "SaveOutliers: " + rep.saved.status.ToString();
    return rep;
  }
  std::uint64_t first_search = t_saved;
  rep.search_ms.reserve(rep.saved.records.size());
  for (const disc::OutlierRecord& rec : rep.saved.records) {
    if (rec.stats.start_ns != 0) {
      first_search = std::min(first_search, rec.stats.start_ns);
    }
    rep.search_ms.push_back(static_cast<double>(rec.stats.wall_nanos) * 1e-6);
  }
  rep.pipeline_s = Sec(t_end - t0);
  rep.setup_s = Sec(first_search - t0);
  const double saving_s = Sec(t_saved - first_search);
  rep.save_outliers_per_s =
      saving_s > 0 ? static_cast<double>(rep.saved.records.size()) / saving_s
                   : 0;
  rep.f1 = scores.f1;
  return rep;
}

/// Finishes lazy set-up (SIMD tier latch, log and metric registration,
/// allocator pools, first-touch code paths) on every 8th row before any
/// timing starts.
void WarmUp(const Workload& w, const GeneratedData& gen,
            ServedObservers* observers) {
  (void)disc::ActiveSimdTier();
  std::string csv;
  std::vector<int> truth;
  std::size_t line = 0;
  std::size_t begin = 0;
  while (begin < gen.csv.size()) {
    std::size_t end = gen.csv.find('\n', begin);
    if (end == std::string::npos) end = gen.csv.size();
    if (line == 0 || (line - 1) % 8 == 0) {
      csv.append(gen.csv, begin, end - begin + 1);
      if (line > 0) truth.push_back(gen.labels[line - 1]);
    }
    ++line;
    begin = end + 1;
  }
  (void)RunPipeline(w, csv, truth, observers);
  if (observers != nullptr) observers->ClearSinks();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::size_t samples = 0;
};

struct Outcome {
  std::uint64_t attempted = 0;
  CheckTally tally;
  std::vector<Metric> metrics;

  void Add(std::string name, std::string unit, double value,
           std::size_t samples = 1) {
    metrics.push_back({std::move(name), std::move(unit), value, samples});
  }
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Prints the metric table, the check summary and the result line.
int Report(const Outcome& out) {
  std::printf("%-44s %-6s %16s %8s\n", "metric", "unit", "value", "samples");
  for (const Metric& m : out.metrics) {
    std::printf("%-44s %-6s %16.6g %8zu\n", m.name.c_str(), m.unit.c_str(),
                m.value, m.samples);
  }
  std::printf("ops_attempted %llu ops_failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.tally.failed));
  for (const auto& [reason, count] : out.tally.reasons) {
    std::printf("check failed: %s (%llu)\n", reason.c_str(),
                static_cast<unsigned long long>(count));
  }
  bool finite = true;
  std::string json = "{\"correct\": ";
  std::string body;
  for (const Metric& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.tally.failed == 0 && finite && out.attempted > 0;
  if (!finite) std::printf("check failed: a metric is not finite\n");
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                    out.attempted, 1));
  json += ", \"failed\": " + std::to_string(out.tally.failed +
                                            (finite ? 0 : 1));
  json += ", \"metrics\": {" + body + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void PrintMeta(const Workload& w, std::uint64_t seed, int trace,
               const GeneratedData& gen, const disc::SavedDataset& saved,
               double band) {
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"simd_tier\": \"%s\", \"hardware_threads\": %u, \"workers\": %zu, "
      "\"observers\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"rows\": %zu, \"dims\": %zu, \"epsilon\": %s, \"eta\": %zu, "
      "\"kappa\": %zu, \"inliers\": %zu, \"outliers\": %zu, "
      "\"corrupted_rows\": %zu, \"mean_eps_neighbours\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), trace,
      disc::SimdTierName(disc::ActiveSimdTier()),
      std::thread::hardware_concurrency(), w.workers,
      w.served ? "served" : "detached", PERFBENCH_BUILD_TYPE, __VERSION__,
      gen.labels.size(), w.data.dims, Num(w.epsilon).c_str(), w.eta, w.kappa,
      saved.inlier_rows.size(), saved.outlier_rows.size(),
      gen.corrupted_rows.size(), Num(band).c_str());
  std::printf("density: mean eps-neighbours %.1f over %zu sampled rows; "
              "%zu outliers (%zu corrupted rows)\n",
              band, kDensitySampleRows, saved.outlier_rows.size(),
              gen.corrupted_rows.size());
}

/// Mean ε-neighbour count (self included) of a seeded row sample, counted
/// by brute force — the band size that sets search cost.
double MeasureBand(const disc::Relation& data,
                   const disc::DistanceEvaluator& evaluator, double epsilon,
                   std::uint64_t seed) {
  BenchRng rng(seed ^ 0xbadc0ffeeULL);
  double total = 0;
  for (std::size_t s = 0; s < kDensitySampleRows; ++s) {
    const disc::Tuple& t = data[rng.Below(data.size())];
    for (const disc::Tuple& other : data) {
      if (evaluator.DistanceWithin(t, other, epsilon) <= epsilon) total += 1;
    }
  }
  return total / static_cast<double>(kDensitySampleRows);
}

struct Input {
  GeneratedData gen;
  disc::Relation data;
  std::optional<disc::DistanceEvaluator> evaluator;
};

std::optional<Input> MakeInput(const Workload& w, std::uint64_t seed) {
  Input in;
  in.gen = Generate(w.data, seed);
  disc::Result<disc::Relation> parsed = disc::ParseCsv(in.gen.csv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: generated CSV does not parse: %s\n",
                 parsed.status().ToString().c_str());
    return std::nullopt;
  }
  in.data = std::move(parsed).value();
  in.evaluator.emplace(in.data.schema());
  return in;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int RunEndToEnd(const Workload& w, std::uint64_t seed, double seconds) {
  std::optional<Input> in = MakeInput(w, seed);
  if (!in.has_value()) return 2;
  std::unique_ptr<ServedObservers> observers;
  if (w.served) observers = std::make_unique<ServedObservers>();
  WarmUp(w, in->gen, observers.get());

  Outcome out;
  std::vector<double> pipeline_s, setup_s, rate, p50, p95;
  // Each outlier's best (least disturbed) search time over the repetitions;
  // the work is identical every time, so only outside load differs.
  std::vector<double> best_search_ms;
  std::size_t search_samples = 0;
  std::optional<PipelineRep> first;
  const std::uint64_t start = TraceNowNs();
  while (true) {
    if (observers != nullptr) observers->ClearSinks();
    PipelineRep rep = RunPipeline(w, in->gen.csv, in->gen.labels,
                                  observers.get());
    if (!rep.error.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", rep.error.c_str());
      return 2;
    }
    // Checks, outside the timed pass: the first repetition in full, every
    // later one against the first, bit for bit.
    out.attempted += rep.saved.records.size();
    if (!first.has_value()) {
      out.tally.Merge(CheckSavedDataset(in->data, *in->evaluator, w.epsilon,
                                        w.eta, rep.saved));
    } else {
      const auto& a = first->saved.records;
      const auto& b = rep.saved.records;
      for (std::size_t i = 0; i < b.size(); ++i) {
        if (i >= a.size() || !SameRecord(a[i], b[i])) {
          out.tally.Fail({"record differs from the first repetition"});
        }
      }
      if (a.size() != b.size() || rep.f1 != first->f1) {
        out.tally.Fail({"repetition output differs from the first"});
      }
    }
    pipeline_s.push_back(rep.pipeline_s);
    setup_s.push_back(rep.setup_s);
    rate.push_back(rep.save_outliers_per_s);
    p50.push_back(NearestRank(rep.search_ms, 50));
    p95.push_back(NearestRank(rep.search_ms, 95));
    search_samples += rep.search_ms.size();
    if (best_search_ms.empty()) best_search_ms = rep.search_ms;
    for (std::size_t i = 0;
         i < best_search_ms.size() && i < rep.search_ms.size(); ++i) {
      best_search_ms[i] = std::min(best_search_ms[i], rep.search_ms[i]);
    }
    std::printf("repetition %zu: pipeline %.4f s, setup %.4f s, "
                "%.2f outliers/s, search p50 %.3f ms p95 %.3f ms\n",
                pipeline_s.size(), rep.pipeline_s, rep.setup_s,
                rep.save_outliers_per_s, p50.back(), p95.back());
    if (!first.has_value()) first = std::move(rep);

    const double elapsed = Sec(TraceNowNs() - start);
    const double per_rep = elapsed / static_cast<double>(pipeline_s.size());
    if (pipeline_s.size() >= kMinRepetitions &&
        elapsed + per_rep > seconds) {
      break;
    }
  }

  const disc::SavedDataset& saved = first->saved;
  PrintMeta(w, seed, 0, in->gen, saved,
            MeasureBand(in->data, *in->evaluator, w.epsilon, seed));
  const std::size_t reps = pipeline_s.size();
  std::printf(
      "repetitions: %zu (warm-up excluded), %zu search samples; medians: "
      "pipeline %.4f s, setup %.4f s, %.2f outliers/s, search p50 %.3f ms "
      "p95 %.3f ms\n",
      reps, search_samples, Median(pipeline_s), Median(setup_s), Median(rate),
      Median(p50), Median(p95));
  const double outliers = static_cast<double>(saved.records.size());
  // Timings are best-of-repetitions: the pipeline is deterministic, so the
  // repetitions differ only by outside load, which on a shared 4-vCPU KVM
  // guest came in stretches of seconds to minutes at 1.2-1.8x. Set-up is
  // the median of the run's set-ups.
  out.Add("pipeline_s", "s",
          *std::min_element(pipeline_s.begin(), pipeline_s.end()), reps);
  out.Add("setup_s", "s", Median(setup_s), reps);
  out.Add("save_outliers_per_s", "1/s",
          *std::max_element(rate.begin(), rate.end()), reps);
  out.Add("search_ms_p50", "ms", NearestRank(best_search_ms, 50),
          search_samples);
  out.Add("search_ms_p95", "ms", NearestRank(best_search_ms, 95),
          search_samples);
  out.Add("peak_rss_mb", "MB", PeakRssMb(), 1);
  out.Add("saved_fraction", "ratio",
          outliers > 0 ? static_cast<double>(saved.CountDisposition(
                             disc::OutlierDisposition::kSaved)) /
                             outliers
                       : 0,
          saved.records.size());
  out.Add("attrs_changed_mean", "count", saved.MeanAdjustedAttributes(),
          saved.records.size());
  out.Add("repair_cost_mean", "dist", saved.MeanAdjustmentCost(),
          saved.records.size());
  out.Add("cluster_f1", "ratio", first->f1, saved.repaired.size());
  return Report(out);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

/// The attribute sets a full search visits: every X for κ = 0, else every X
/// with |X| ≥ m − κ.
std::vector<disc::AttributeSet> SearchLattice(std::size_t m,
                                              std::size_t kappa) {
  std::vector<disc::AttributeSet> sets;
  const std::size_t min_size = (kappa == 0 || kappa >= m) ? 0 : m - kappa;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << m); ++bits) {
    disc::AttributeSet x(bits);
    if (x.size() >= min_size) sets.push_back(x);
  }
  return sets;
}

/// One pass of the pipeline as calls into each layer's public functions,
/// every call in its own span. Heap-allocated and never moved: the saver
/// refers to `inliers` and `evaluator`, and the layer probes reuse them.
struct TracedPass {
  explicit TracedPass(std::uint64_t run_id) : spans(run_id) {}

  SpanRecorder spans;
  std::uint64_t root = 0;
  std::uint64_t stage = 0;  ///< the search stage
  disc::Relation data;
  std::optional<disc::DistanceEvaluator> evaluator;
  disc::SearchStats split_stats;
  disc::InlierOutlierSplit split;
  disc::Relation inliers;
  std::vector<disc::Tuple> outliers;
  std::unique_ptr<disc::DiscSaver> saver;
  std::vector<disc::SaveResult> results;
  disc::WorkStealingPool::SchedStats pool_before;
  disc::WorkStealingPool::SchedStats pool_after;
  double f1 = 0;

  double seconds() const { return Sec(spans.Find(root)->duration_ns()); }
};

void RunTracedPass(const Workload& w, const GeneratedData& gen,
                   TracedPass* p) {
  SpanRecorder& rec = p->spans;
  const disc::DistanceConstraint constraint{w.epsilon, w.eta};
  disc::SaveOptions save_options;
  save_options.kappa = w.kappa;

  p->root = rec.Begin("core.outlier_saving/pipeline");
  {
    SpanRecorder::Scope s(rec, "common.csv/ParseCsv");
    disc::Result<disc::Relation> parsed = disc::ParseCsv(gen.csv);
    if (parsed.ok()) p->data = std::move(parsed).value();
  }
  p->evaluator.emplace(p->data.schema());
  std::unique_ptr<disc::NeighborIndex> full_index;
  {
    SpanRecorder::Scope s(rec, "index/MakeNeighborIndex");
    full_index = disc::MakeNeighborIndex(p->data, *p->evaluator, w.epsilon);
  }
  {
    SpanRecorder::Scope s(rec, "constraints/SplitInliersOutliers");
    disc::StatsNeighborIndex counted(*full_index, &p->split_stats);
    p->split = disc::SplitInliersOutliers(p->data, counted, constraint);
  }
  p->inliers = p->data.Select(p->split.inlier_rows);
  for (std::size_t row : p->split.outlier_rows) {
    p->outliers.push_back(p->data[row]);
  }
  {
    SpanRecorder::Scope s(rec, "core.saver/DiscSaver");
    p->saver = std::make_unique<disc::DiscSaver>(p->inliers, *p->evaluator,
                                                 constraint);
  }
  if (w.workers > 1) {
    p->stage = rec.Begin("common.pool/SaveAll");
    {
      disc::WorkStealingPool pool(w.workers);
      p->pool_before = pool.stats();
      p->results = p->saver->SaveAll(p->outliers, save_options, &pool);
      p->pool_after = pool.stats();
    }
    rec.End(p->stage);
  } else {
    p->stage = rec.Begin("core.saver/search");
    for (const disc::Tuple& o : p->outliers) {
      SpanRecorder::Scope s(rec, "core.saver/Save");
      p->results.push_back(p->saver->Save(o, save_options));
    }
    rec.End(p->stage);
  }
  disc::Relation repaired = p->data;
  for (std::size_t i = 0; i < p->results.size(); ++i) {
    if (p->results[i].feasible) {
      repaired[p->split.outlier_rows[i]] = p->results[i].adjusted;
    }
  }
  disc::Labels labels;
  {
    SpanRecorder::Scope s(rec, "clustering/Dbscan");
    labels = disc::Dbscan(repaired, *p->evaluator, {w.epsilon, w.eta});
  }
  {
    SpanRecorder::Scope s(rec, "eval/PairCounting");
    p->f1 = disc::PairCounting(labels, gen.labels).f1;
  }
  rec.End(p->root);
}

/// Layer probes on a finished pass, recorded into its spans under
/// "probe/layers": the inlier index and kNN cache built on their own, the
/// 1-worker reference (pooled workloads; on 1-worker workloads the pass's
/// search stage already is one), a seeded sample of bound and cache calls,
/// and kernel range counts. Returns the 1-worker reference results.
std::vector<disc::SaveResult> RunProbes(const Workload& w, std::uint64_t seed,
                                        TracedPass& p) {
  SpanRecorder& rec = p.spans;
  SpanRecorder::Scope all(rec, "probe/layers");
  const disc::DistanceEvaluator& evaluator = *p.evaluator;
  {
    std::unique_ptr<disc::NeighborIndex> index;
    {
      SpanRecorder::Scope s(rec, "index/MakeNeighborIndex.inliers");
      index = disc::MakeNeighborIndex(p.inliers, evaluator, w.epsilon);
    }
    SpanRecorder::Scope s(rec, "index/KthNeighborCache");
    const disc::KthNeighborCache cache(p.inliers, *index, w.eta);
  }
  disc::SaveOptions save_options;
  save_options.kappa = w.kappa;
  std::vector<disc::SaveResult> single;
  if (w.workers > 1) {
    SpanRecorder::Scope s(rec, "core.saver/search.reference");
    for (const disc::Tuple& o : p.outliers) {
      SpanRecorder::Scope one(rec, "core.saver/Save");
      single.push_back(p.saver->Save(o, save_options));
    }
  }
  std::unique_ptr<disc::ColumnarView> view;
  {
    SpanRecorder::Scope s(rec, "distance.kernel/ColumnarView");
    view = disc::ColumnarView::Build(p.inliers, evaluator);
  }
  const std::vector<disc::AttributeSet> lattice =
      SearchLattice(p.data.arity(), w.kappa);
  const disc::BoundsEngine& bounds = p.saver->bounds();
  BenchRng rng(seed ^ 0x5eed5a3b1eULL);
  for (std::size_t s = 0; s < kBoundSampleOutliers && !p.outliers.empty();
       ++s) {
    const disc::Tuple& o = p.outliers[rng.Below(p.outliers.size())];
    std::optional<disc::SearchDistanceCache> dcache;
    {
      SpanRecorder::Scope span(rec, "core.dcache/SearchDistanceCache");
      dcache.emplace(p.inliers, evaluator, o, view.get());
      for (std::size_t a = 0; a < p.data.arity(); ++a) {
        (void)dcache->attribute_row(a);
      }
    }
    for (std::size_t j = 0; j < kBoundSampleSets; ++j) {
      const disc::AttributeSet x = lattice[rng.Below(lattice.size())];
      disc::BudgetGauge gauge(nullptr);
      {
        SpanRecorder::Scope span(rec, "core.bounds/LowerBoundForX");
        (void)bounds.LowerBoundForX(o, x, &gauge, &*dcache);
      }
      {
        SpanRecorder::Scope span(rec, "core.bounds/UpperBoundForX");
        (void)bounds.UpperBoundForX(o, x, &gauge, &*dcache);
      }
    }
    if (view != nullptr) {
      SpanRecorder::Scope span(rec, "distance.kernel/CountWithin");
      const disc::FlatKernel kernel(*view, o);
      (void)kernel.CountWithin(w.epsilon);
    }
  }
  return single;
}

int RunTraced(const Workload& w, std::uint64_t seed, double seconds,
              const std::string& trace_out) {
  std::optional<Input> in = MakeInput(w, seed);
  if (!in.has_value()) return 2;
  const std::uint64_t run_start = TraceNowNs();
  WarmUp(w, in->gen, nullptr);
  Outcome out;

  // 1. Untraced and traced passes in pairs, alternating which goes first;
  //    the observers stay detached in both, so each pair's difference is
  //    the benchmark's own tracing. The served workload keeps time for the
  //    observer A/B below.
  std::optional<PipelineRep> ref;
  std::unique_ptr<TracedPass> pass;
  std::vector<double> untraced_s, traced_s, overhead_s;
  const double pair_budget = seconds * (w.served ? 0.4 : 0.8);
  for (std::size_t pair = 0;; ++pair) {
    double side[2] = {0, 0};  // [untraced, traced]
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == (pair % 2 == 1)) {
        pass = std::make_unique<TracedPass>(seed);
        RunTracedPass(w, in->gen, pass.get());
        side[1] = pass->seconds();
        // Pair 0 runs untraced first, so the reference exists by now.
        out.attempted += pass->results.size();
        if (pass->results.size() != ref->saved.records.size() ||
            pass->f1 != ref->f1) {
          out.tally.Fail({"traced pipeline output differs from untraced"});
        }
        for (std::size_t i = 0; i < pass->results.size() &&
                                i < ref->saved.records.size();
             ++i) {
          if (!SameSave(pass->results[i], ref->saved.records[i])) {
            out.tally.Fail({"traced save differs from untraced record"});
          }
        }
        continue;
      }
      PipelineRep rep = RunPipeline(w, in->gen.csv, in->gen.labels, nullptr);
      if (!rep.error.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", rep.error.c_str());
        return 2;
      }
      side[0] = rep.pipeline_s;
      out.attempted += rep.saved.records.size();
      if (!ref.has_value()) {
        out.tally.Merge(CheckSavedDataset(in->data, *in->evaluator,
                                          w.epsilon, w.eta, rep.saved));
        ref = std::move(rep);
        continue;
      }
      for (std::size_t i = 0; i < rep.saved.records.size(); ++i) {
        if (i >= ref->saved.records.size() ||
            !SameRecord(rep.saved.records[i], ref->saved.records[i])) {
          out.tally.Fail({"record differs from the first repetition"});
        }
      }
    }
    untraced_s.push_back(side[0]);
    traced_s.push_back(side[1]);
    overhead_s.push_back(side[1] - side[0]);
    const double elapsed = Sec(TraceNowNs() - run_start);
    if (elapsed + elapsed / static_cast<double>(pair + 1) > pair_budget) {
      break;
    }
  }
  const std::vector<disc::OutlierRecord>& ref_records = ref->saved.records;

  // 2. Layer probes on the last traced pass.
  const std::vector<disc::SaveResult> single = RunProbes(w, seed, *pass);
  out.attempted += single.size();
  for (std::size_t i = 0; i < single.size(); ++i) {
    if (i >= pass->results.size() || !SameSave(single[i], pass->results[i])) {
      out.tally.Fail({"pooled save differs from the 1-worker run"});
    }
  }

  // 3. Interleaved A/B of the served observers on the same data,
  //    alternating which side goes first, for the rest of the run (≥ 3
  //    pairs).
  std::vector<double> obs_ratios;
  std::size_t obs_spans = 0;
  std::uint64_t obs_events = 0;
  if (w.served) {
    std::vector<double> pair_s;
    for (std::size_t pair = 0;; ++pair) {
      double side_s[2] = {0, 0};  // [detached, attached]
      for (int k = 0; k < 2; ++k) {
        const bool attached = (k == 0) == (pair % 2 == 1);
        std::unique_ptr<ServedObservers> observers;
        if (attached) observers = std::make_unique<ServedObservers>();
        const disc::OutlierSavingOptions options =
            PipelineOptions(w, observers.get());
        const std::uint64_t t = TraceNowNs();
        const disc::SavedDataset saved =
            disc::SaveOutliers(pass->data, *pass->evaluator, options);
        side_s[attached ? 1 : 0] = Sec(TraceNowNs() - t);
        out.attempted += saved.records.size();
        for (std::size_t i = 0; i < saved.records.size(); ++i) {
          if (i >= ref_records.size() ||
              !SameRecord(saved.records[i], ref_records[i])) {
            out.tally.Fail({"observers changed a saved record"});
          }
        }
        if (attached) {
          obs_spans = observers->spans();
          obs_events = observers->explain_events();
        }
      }
      obs_ratios.push_back(side_s[1] / side_s[0]);
      pair_s.push_back(side_s[0] + side_s[1]);
      const double elapsed = Sec(TraceNowNs() - run_start);
      if (obs_ratios.size() >= kMinRepetitions &&
          elapsed + Median(pair_s) > seconds) {
        break;
      }
    }
  }

  // ---- Metrics and accounting, from the last traced pass ----
  const SpanRecorder& rec = pass->spans;
  const BenchSpan& root = *rec.Find(pass->root);
  const double n_rows = static_cast<double>(pass->data.size());
  const double n_inliers = static_cast<double>(pass->inliers.size());
  const double n_out = static_cast<double>(pass->outliers.size());
  const std::vector<disc::SaveResult>& one_worker =
      w.workers > 1 ? single : pass->results;
  disc::SearchStats total;
  std::uint64_t exhaustive = 0;
  const std::size_t lattice_size =
      SearchLattice(pass->data.arity(), w.kappa).size();
  for (const disc::SaveResult& r : one_worker) {
    total.MergeFrom(r.stats);
    if (r.stats.visited_sets >= lattice_size) ++exhaustive;
  }
  const SpanSum saves = rec.Sum("core.saver/Save");
  const SpanSum lb = rec.Sum("core.bounds/LowerBoundForX");
  const SpanSum ub = rec.Sum("core.bounds/UpperBoundForX");
  const SpanSum fill = rec.Sum("core.dcache/SearchDistanceCache");
  const SpanSum kernel = rec.Sum("distance.kernel/CountWithin");
  SearchAccounting acct;
  acct.prop3 = total.prop3_bounds;
  acct.lb_scan_s = lb.mean_s();
  acct.prop5 = total.prop5_bounds;
  acct.ub_scan_s = ub.mean_s();
  acct.outliers = one_worker.size();
  acct.fill_s = fill.mean_s();
  acct.search_s = saves.total_s();
  double pooled_busy_s = 0;
  for (const disc::SaveResult& r : pass->results) {
    pooled_busy_s += static_cast<double>(r.stats.wall_nanos) * 1e-9;
  }
  const double stage_s = Sec(rec.Find(pass->stage)->duration_ns());
  const double speedup = stage_s > 0 ? acct.search_s / stage_s : 0;
  const double workers = static_cast<double>(w.workers);
  const double nodes = static_cast<double>(total.nodes_expanded);
  const double dcache_events =
      static_cast<double>(total.dcache_hits + total.dcache_misses);
  auto per = [](double num, double den) { return den > 0 ? num / den : 0; };

  const double parse_s = rec.Sum("common.csv/ParseCsv").total_s();
  const double kth_s = rec.Sum("index/KthNeighborCache").total_s();
  const double dbscan_s = rec.Sum("clustering/Dbscan").total_s();
  out.Add("common.csv.parse_s", "s", parse_s);
  out.Add("common.csv.rows_per_s", "1/s", per(n_rows, parse_s));
  out.Add("index.build_s", "s", rec.Sum("index/MakeNeighborIndex").total_s());
  out.Add("index.kth_cache_s", "s", kth_s);
  out.Add("index.kth_cache_us_per_row", "us", per(kth_s, n_inliers) * 1e6,
          pass->inliers.size());
  out.Add("constraints.split_s", "s",
          rec.Sum("constraints/SplitInliersOutliers").total_s());
  out.Add("constraints.split_count_queries", "count",
          static_cast<double>(pass->split_stats.index_count_queries));
  out.Add("core.saver.construct_s", "s",
          rec.Sum("core.saver/DiscSaver").total_s());
  out.Add("core.saver.search_s", "s", acct.search_s, saves.count);
  out.Add("core.saver.nodes_per_outlier", "count", per(nodes, n_out),
          one_worker.size());
  out.Add("core.saver.ns_per_node", "ns", per(acct.search_s, nodes) * 1e9,
          total.nodes_expanded);
  out.Add("core.saver.lb_prune_ratio", "ratio",
          per(static_cast<double>(total.lb_prunes),
              static_cast<double>(total.prop3_bounds)),
          total.prop3_bounds);
  out.Add("core.saver.exhaustive_share", "ratio",
          per(static_cast<double>(exhaustive), n_out), one_worker.size());
  out.Add("core.saver.feasibility_checks_per_outlier", "count",
          per(static_cast<double>(total.feasibility_checks), n_out),
          one_worker.size());
  out.Add("core.saver.unattributed_share", "ratio", acct.UnattributedShare());
  out.Add("core.bounds.prop3_per_outlier", "count",
          per(static_cast<double>(total.prop3_bounds), n_out),
          one_worker.size());
  out.Add("core.bounds.prop5_per_outlier", "count",
          per(static_cast<double>(total.prop5_bounds), n_out),
          one_worker.size());
  out.Add("core.bounds.lb_ns_per_row", "ns", per(lb.mean_s(), n_inliers) * 1e9,
          lb.count);
  out.Add("core.bounds.ub_ns_per_row", "ns", per(ub.mean_s(), n_inliers) * 1e9,
          ub.count);
  out.Add("core.dcache.fill_ns_per_row", "ns",
          per(fill.mean_s(), n_inliers) * 1e9, fill.count);
  out.Add("core.dcache.hit_ratio", "ratio",
          per(static_cast<double>(total.dcache_hits), dcache_events));
  out.Add("distance.kernel.rows_per_s", "1/s",
          per(n_inliers * static_cast<double>(kernel.count), kernel.total_s()),
          kernel.count);
  out.Add("common.pool.speedup", "x", speedup);
  out.Add("common.pool.efficiency", "ratio", speedup / workers);
  out.Add("common.pool.idle_share", "ratio",
          stage_s > 0 ? 1.0 - pooled_busy_s / (workers * stage_s) : 0);
  out.Add("common.pool.steals", "count",
          static_cast<double>(pass->pool_after.steals -
                              pass->pool_before.steals));
  out.Add("common.pool.nested_chunks", "count",
          static_cast<double>(pass->pool_after.nested_chunks -
                              pass->pool_before.nested_chunks));
  const double obs_share = obs_ratios.empty() ? 0 : Median(obs_ratios) - 1.0;
  const std::array<double, 3> obs_q =
      obs_ratios.empty() ? std::array<double, 3>{} : Quartiles(obs_ratios);
  out.Add("obs.overhead_share", "ratio", obs_share, obs_ratios.size());
  out.Add("obs.overhead_share_iqr", "ratio", obs_q[2] - obs_q[0],
          obs_ratios.size());
  out.Add("obs.spans", "count", static_cast<double>(obs_spans));
  out.Add("obs.explain_events", "count", static_cast<double>(obs_events));
  out.Add("clustering.dbscan_s", "s", dbscan_s);
  out.Add("clustering.dbscan_us_per_row", "us", per(dbscan_s, n_rows) * 1e6,
          pass->data.size());
  out.Add("eval.score_s", "s", rec.Sum("eval/PairCounting").total_s());
  out.Add("core.outlier_saving.unattributed_share", "ratio",
          per(static_cast<double>(rec.SelfNs(root)),
              static_cast<double>(root.duration_ns())));
  out.Add("trace.pipeline_s", "s", Median(traced_s), traced_s.size());
  out.Add("trace.untraced_pipeline_s", "s", Median(untraced_s),
          untraced_s.size());
  out.Add("trace.overhead_s", "s", Median(overhead_s), overhead_s.size());

  // ---- Human-readable ledger ----
  PrintMeta(w, seed, 1, in->gen, ref->saved,
            MeasureBand(in->data, *in->evaluator, w.epsilon, seed));
  const double traced = pass->seconds();
  // The saver's constructor builds the inlier index and the kNN cache; the
  // probe timed both on their own, so that part moves to the index layer.
  const double construct_s = rec.Sum("core.saver/DiscSaver").total_s();
  const double inlier_index_s =
      rec.Sum("index/MakeNeighborIndex.inliers").total_s();
  const double construct_index_s =
      std::min(construct_s, inlier_index_s + kth_s);
  std::printf(
      "saver construction %.4f s = inlier index %.4f s + kNN cache %.4f s + "
      "bounds and columnar view %.4f s\n",
      construct_s, inlier_index_s, kth_s, construct_s - construct_index_s);
  std::printf(
      "layers in the last traced pipeline (%.4f s): self time, share, and "
      "share with the saver's index build moved to index\n",
      traced);
  std::string dominant;
  double dominant_s = 0;
  for (const auto& [layer, t] : rec.ByLayer(pass->root)) {
    double attributed = Sec(t.self_ns);
    if (layer == "core.saver") attributed -= construct_index_s;
    if (layer == "index") attributed += construct_index_s;
    if (attributed > dominant_s) {
      dominant = layer;
      dominant_s = attributed;
    }
    std::printf("  %-22s %10.4f s %6.1f%% %6.1f%%  (%llu spans)\n",
                layer.c_str(), Sec(t.self_ns),
                100.0 * per(Sec(t.self_ns), traced),
                100.0 * per(attributed, traced),
                static_cast<unsigned long long>(t.spans));
  }
  std::printf("dominant layer: %s (%.1f%%)\n", dominant.c_str(),
              100.0 * per(dominant_s, traced));
  std::uint64_t stage_sum_ns = 0;
  for (const BenchSpan& s : rec.spans()) {
    if (s.parent == pass->root) stage_sum_ns += s.duration_ns();
  }
  const double glue_s = traced - Sec(stage_sum_ns);
  std::printf(
      "accounting, pipeline: sum of stage spans %.4f s of %.4f s; "
      "unattributed %.4f s (%.2f%%)\n",
      Sec(stage_sum_ns), traced, glue_s, 100.0 * per(glue_s, traced));
  std::printf(
      "accounting, search: prop3 %llu x %.2f us + prop5 %llu x %.2f us + "
      "outliers %llu x %.2f us fill = %.4f s of %.4f s 1-worker search; "
      "unattributed %.4f s (%.1f%%)\n",
      static_cast<unsigned long long>(acct.prop3), acct.lb_scan_s * 1e6,
      static_cast<unsigned long long>(acct.prop5), acct.ub_scan_s * 1e6,
      static_cast<unsigned long long>(acct.outliers), acct.fill_s * 1e6,
      acct.Predicted(), acct.search_s, acct.Residual(),
      100.0 * acct.UnattributedShare());
  std::printf(
      "tracing overhead: %zu pairs, median traced %.4f s - untraced %.4f s; "
      "median pair difference %.4f s (%.2f%%)\n",
      overhead_s.size(), Median(traced_s), Median(untraced_s),
      Median(overhead_s),
      100.0 * per(Median(overhead_s), Median(untraced_s)));
  if (w.served) {
    std::printf(
        "observer A/B: %zu pairs, attached/detached median %.4f, "
        "quartiles %.4f..%.4f; %zu spans, %llu explain events per run\n",
        obs_ratios.size(), Median(obs_ratios), obs_q[0], obs_q[2], obs_spans,
        static_cast<unsigned long long>(obs_events));
  }
  if (!trace_out.empty()) {
    if (rec.WriteJsonl(trace_out)) {
      std::printf("spans: %zu written to %s\n", rec.spans().size(),
                  trace_out.c_str());
    } else {
      std::printf("spans: could not write %s\n", trace_out.c_str());
    }
  }
  return Report(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_disc --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\nworkloads:");
  for (const Workload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  const Workload* w = FindWorkload(workload);
  if (w == nullptr || (trace != 0 && trace != 1) || !(seconds > 0)) {
    return Usage();
  }
  // SaveOutliers logs three INFO lines per call; keep warnings and errors.
  disc::SetMinLogLevel(disc::LogLevel::kWarn);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              w->name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace);
  std::printf("why: %s\n", w->why.c_str());
  return trace == 0 ? RunEndToEnd(*w, seed, seconds)
                    : RunTraced(*w, seed, seconds, trace_out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
