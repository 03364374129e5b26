// bench_parallel_save — wall-clock scaling of parallel batch outlier saving.
//
// Builds a seeded Gaussian-mixture dataset with injected errors whose
// magnitudes and attribute counts are deliberately skewed (lognormal
// displacement, P(k attributes) ∝ 1/k²), so the per-outlier search costs
// span orders of magnitude — the workload the cost-ordered work-stealing
// scheduler exists for. Runs the same DiscSaver::SaveAll batch with 1, 2, 4
// and 8 worker threads, reports seconds/speedup/steal counts per thread
// count, and verifies the results are bit-identical across thread counts
// (the determinism guarantee of SaveAll, including SearchStats::SameWork).
//
// Default mode saves ~500 outliers against ~20k inliers and additionally
// measures per-outlier latency percentiles and the anytime deadline path.
// `--large` scales the dataset to 500k tuples (~2000 outliers) for the
// nightly CI scale job; the latency and deadline passes are skipped there
// (the 1-thread sweep already provides the throughput reference).
//
// Everything is written machine-readably to BENCH_parallel_save.json
// (schema_version 3) in the working directory; scripts/check_bench_regression.py
// compares that file against bench/baselines/.
//
// Not a paper figure: this benchmarks the repo's own parallel saving path.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/search_budget.h"
#include "data/generators.h"
#include "index/index_factory.h"
#include "support.h"

namespace disc::bench {
namespace {

struct BatchScenario {
  Relation data;
  DistanceConstraint constraint;
};

/// Samples how many attributes one corrupted row spikes: P(k) ∝ 1/k² over
/// k ∈ {1, 2, 3}, so most errors touch one attribute but a heavy-ish tail
/// needs multi-attribute adjustments (deeper searches).
std::size_t SampleAttributeCount(Rng& rng) {
  // Cumulative weights of 1, 1/4, 1/9 normalized.
  const double u = rng.Uniform();
  if (u < 1.0 / (1.0 + 0.25 + 1.0 / 9.0)) return 1;
  if (u < (1.0 + 0.25) / (1.0 + 0.25 + 1.0 / 9.0)) return 2;
  return 3;
}

/// Well-separated Gaussian clusters in 6-D with a strided slice of rows
/// corrupted by lognormally-distributed spikes. Default: 10 clusters ×
/// 2,000 tuples (≈500 outliers). Large: 25 clusters × 20,000 tuples
/// (n = 500k, ≈2,000 outliers).
BatchScenario MakeScenario(std::uint64_t seed, bool large) {
  const std::size_t kDims = 6;
  const std::size_t clusters = large ? 25 : 10;
  const std::size_t per_cluster = large ? 20000 : 2000;
  const double center_range = large ? 240.0 : 140.0;
  std::vector<std::vector<double>> centers =
      PlaceClusterCenters(clusters, kDims, center_range, 18.0, seed);
  std::vector<ClusterSpec> specs;
  for (const auto& center : centers) {
    specs.push_back({center, 0.8, per_cluster});
  }
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed + 1);

  // Corrupt a strided slice of rows. Displacement magnitude is lognormal
  // (median ≈ e³ ≈ 20, long right tail) on top of a fixed offset that
  // guarantees the ε-band breaks; attribute count follows the 1/k² law
  // above. Together they spread the per-outlier search cost over orders of
  // magnitude — some saves are one cheap splice, others fight through
  // multi-attribute spikes landed between clusters.
  Rng rng(seed + 2);
  const std::size_t stride = large ? 250 : 40;
  for (std::size_t row = stride / 2; row < mixture.data.size(); row += stride) {
    const std::size_t k = SampleAttributeCount(rng);
    const std::size_t base = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(kDims) - 1));
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t a = (base + 2 * j) % kDims;
      const double magnitude = 12.0 + std::exp(rng.Gaussian(3.0, 0.8));
      const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      mixture.data[row][a] =
          Value(mixture.data[row][a].num() + sign * magnitude);
    }
  }

  BatchScenario s;
  s.data = std::move(mixture.data);
  s.constraint = {2.0, 6};
  return s;
}

bool SameResults(const std::vector<SaveResult>& a,
                 const std::vector<SaveResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].feasible != b[i].feasible || a[i].adjusted != b[i].adjusted ||
        a[i].cost != b[i].cost || a[i].termination != b[i].termination ||
        !a[i].stats.SameWork(b[i].stats) ||
        !(a[i].adjusted_attributes == b[i].adjusted_attributes)) {
      return false;
    }
  }
  return true;
}

int Run(bool large) {
  BatchScenario s = MakeScenario(/*seed=*/7, large);
  DistanceEvaluator evaluator(s.data.schema());

  std::unique_ptr<NeighborIndex> full_index =
      MakeNeighborIndex(s.data, evaluator, s.constraint.epsilon);
  InlierOutlierSplit split =
      SplitInliersOutliers(s.data, *full_index, s.constraint);
  Relation inliers = s.data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  outliers.reserve(split.outlier_rows.size());
  for (std::size_t row : split.outlier_rows) {
    outliers.push_back(s.data[row]);
  }

  std::printf("dataset: %zu tuples, %zu outliers, %zu inliers (eps=%.1f "
              "eta=%zu)%s\n",
              s.data.size(), outliers.size(), inliers.size(),
              s.constraint.epsilon, s.constraint.eta,
              large ? " [--large]" : "");

  DiscSaver saver(inliers, evaluator, s.constraint);
  SaveOptions save_options;
  save_options.kappa = 2;

  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Uint(3);
  json.Key("bench").String("parallel_save");
  json.Key("large").Bool(large);
  json.Key("hardware_threads").Uint(WorkStealingPool::DefaultThreadCount());
  json.Key("tuples").Uint(s.data.size());
  json.Key("outliers").Uint(outliers.size());
  json.Key("inliers").Uint(inliers.size());
  json.Key("epsilon").Number(s.constraint.epsilon);
  json.Key("eta").Uint(s.constraint.eta);

  // --- Per-outlier latency (sequential, so queueing does not pollute the
  // percentiles). Default mode only: at n=500k the 1-thread sweep below is
  // already the sequential reference, and a second full pass would double
  // the nightly wall clock for no extra signal. ---
  double latency_total = 0;
  if (!large) {
    std::vector<double> latencies_ms;
    latencies_ms.reserve(outliers.size());
    Timer latency_timer;
    for (const Tuple& outlier : outliers) {
      Timer one;
      SaveResult r = saver.Save(outlier, save_options);
      latencies_ms.push_back(one.Seconds() * 1e3);
      (void)r;
    }
    latency_total = latency_timer.Seconds();
    double p50 = Percentile(latencies_ms, 50);
    double p99 = Percentile(latencies_ms, 99);
    double throughput =
        latency_total > 0
            ? static_cast<double>(outliers.size()) / latency_total
            : 0;
    std::printf("per-outlier latency: p50 %.3f ms, p99 %.3f ms; "
                "throughput %.1f outliers/s (1 thread)\n",
                p50, p99, throughput);
    json.Key("latency").BeginObject();
    json.Key("p50_ms").Number(p50);
    json.Key("p99_ms").Number(p99);
    json.Key("throughput_per_s").Number(throughput);
    json.EndObject();
  }

  PrintHeader("Parallel batch outlier saving (DiscSaver::SaveAll)");
  PrintRow({"threads", "seconds", "speedup", "saved", "steals", "chunks"});

  json.Key("thread_sweep").BeginArray();
  std::vector<SaveResult> baseline;
  double baseline_seconds = 0;
  double baseline_throughput = 0;
  bool deterministic = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::unique_ptr<WorkStealingPool> pool;
    if (threads > 1) pool = std::make_unique<WorkStealingPool>(threads);
    WorkStealingPool::SchedStats before;
    if (pool != nullptr) before = pool->stats();
    Timer timer;
    std::vector<SaveResult> results =
        saver.SaveAll(outliers, save_options, pool.get());
    double seconds = timer.Seconds();
    WorkStealingPool::SchedStats sched;
    if (pool != nullptr) {
      WorkStealingPool::SchedStats after = pool->stats();
      sched.tasks = after.tasks - before.tasks;
      sched.steals = after.steals - before.steals;
      sched.nested_chunks = after.nested_chunks - before.nested_chunks;
    }

    std::size_t saved = 0;
    for (const SaveResult& r : results) {
      if (r.feasible) ++saved;
    }
    double throughput =
        seconds > 0 ? static_cast<double>(outliers.size()) / seconds : 0;
    if (threads == 1) {
      baseline = results;
      baseline_seconds = seconds;
      baseline_throughput = throughput;
    } else if (!SameResults(baseline, results)) {
      deterministic = false;
    }
    PrintRow({std::to_string(threads), Fmt(seconds, 3),
              Fmt(baseline_seconds / seconds, 2) + "x", std::to_string(saved),
              std::to_string(sched.steals),
              std::to_string(sched.nested_chunks)});
    json.BeginObject();
    json.Key("threads").Uint(threads);
    json.Key("seconds").Number(seconds);
    json.Key("speedup").Number(seconds > 0 ? baseline_seconds / seconds : 0);
    json.Key("throughput_per_s").Number(throughput);
    json.Key("saved").Uint(saved);
    json.Key("sched").BeginObject();
    json.Key("tasks").Uint(sched.tasks);
    json.Key("steals").Uint(sched.steals);
    json.Key("nested_chunks").Uint(sched.nested_chunks);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("throughput_per_s").Number(baseline_throughput);

  // Aggregate search-work counters of the (bit-identical) batch, from the
  // 1-thread baseline. Every work counter is deterministic; timing fields
  // are excluded by construction (AppendJson sums wall_nanos only).
  SearchStats batch_stats;
  for (const SaveResult& r : baseline) batch_stats.MergeFrom(r.stats);
  json.Key("search_stats").BeginObject();
  AppendSearchStats(&json, batch_stats);
  json.EndObject();
  std::printf("batch work: %llu nodes expanded, %llu index queries, "
              "%llu prop3 + %llu prop5 bounds\n",
              static_cast<unsigned long long>(batch_stats.nodes_expanded),
              static_cast<unsigned long long>(batch_stats.index_queries),
              static_cast<unsigned long long>(batch_stats.prop3_bounds),
              static_cast<unsigned long long>(batch_stats.prop5_bounds));

  std::printf("determinism across thread counts: %s\n",
              deterministic ? "OK (bit-identical)" : "MISMATCH");

  // --- Deadline mode (default only): rerun the batch under an aggressive
  // whole-batch deadline (a quarter of the measured sequential time) and
  // tally how the anytime path degrades. Every record must still be
  // present. ---
  bool all_recorded = true;
  if (!large) {
    const double deadline_fraction = 0.25;
    auto deadline_ms =
        static_cast<std::int64_t>(latency_total * deadline_fraction * 1e3);
    if (deadline_ms < 1) deadline_ms = 1;
    BatchBudget batch;
    batch.deadline = Deadline::AfterMillis(deadline_ms);
    Timer deadline_timer;
    std::vector<SaveResult> degraded =
        saver.SaveAll(outliers, save_options, nullptr, batch);
    double deadline_seconds = deadline_timer.Seconds();

    std::size_t completed = 0, hit_deadline = 0, saved_any = 0;
    for (const SaveResult& r : degraded) {
      if (r.termination == SaveTermination::kCompleted ||
          r.termination == SaveTermination::kInfeasible) {
        ++completed;
      } else if (r.termination == SaveTermination::kDeadline) {
        ++hit_deadline;
      }
      if (r.feasible) ++saved_any;
    }
    all_recorded = degraded.size() == outliers.size();
    std::printf("deadline mode (%lld ms budget): %.3f s wall, %zu/%zu records "
                "(%zu completed, %zu past deadline, %zu saved)\n",
                static_cast<long long>(deadline_ms), deadline_seconds,
                degraded.size(), outliers.size(), completed, hit_deadline,
                saved_any);

    json.Key("deadline_mode").BeginObject();
    json.Key("deadline_ms").Int(deadline_ms);
    json.Key("wall_seconds").Number(deadline_seconds);
    json.Key("records").Uint(degraded.size());
    json.Key("completed").Uint(completed);
    json.Key("past_deadline").Uint(hit_deadline);
    json.Key("saved").Uint(saved_any);
    json.EndObject();
  }

  json.Key("deterministic").Bool(deterministic);
  json.EndObject();
  const std::string json_path = BenchOutPath("BENCH_parallel_save.json");
  if (WriteTextFile(json_path, json.str() + "\n")) {
    std::printf("wrote %s\n", json_path.c_str());
  }

  std::printf("hardware threads available: %zu\n",
              WorkStealingPool::DefaultThreadCount());
  return deterministic && all_recorded ? 0 : 1;
}

/// Reads `path` fully into `out`. Returns false on any I/O error.
bool ReadTextFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

/// Extracts a top-level numeric field from a compact JSON object (the shape
/// our JsonWriter emits). Depth-tracked so the same key nested inside
/// latency/thread_sweep does not shadow the top-level one; no JSON library
/// needed for our own output.
bool TopLevelNumber(const std::string& json, const std::string& key,
                    double* out) {
  const std::string needle = "\"" + key + "\":";
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      if (depth == 1 && json.compare(i, needle.size(), needle) == 0) {
        *out = std::strtod(json.c_str() + i + needle.size(), nullptr);
        return true;
      }
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return false;
}

/// The perf gate behind `--check`: compares the single-thread throughput of
/// the run just written against the checked-in baseline with a 2% floor —
/// tight enough to catch tracing or explain capture hooks leaking cost into
/// the detached path (both ride the BudgetGauge: every site is one pointer
/// test when nothing is attached, and this gate holds them to that).
/// Skips (exit 0, loud WARN) when the baseline was recorded on a machine
/// with a different hardware_threads count, mirroring
/// scripts/check_bench_regression.py: cross-shape timings are incomparable.
int CheckAgainstBaseline(const std::string& fresh_path,
                         const std::string& baseline_path) {
  constexpr double kTolerance = 0.02;
  std::string fresh;
  std::string base;
  if (!ReadTextFile(fresh_path, &fresh)) {
    std::fprintf(stderr, "--check: cannot read fresh %s\n", fresh_path.c_str());
    return 1;
  }
  if (!ReadTextFile(baseline_path, &base)) {
    std::fprintf(stderr, "--check: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  double fresh_tp = 0;
  double base_tp = 0;
  double fresh_hw = 0;
  double base_hw = 0;
  if (!TopLevelNumber(fresh, "throughput_per_s", &fresh_tp) ||
      !TopLevelNumber(fresh, "hardware_threads", &fresh_hw) ||
      !TopLevelNumber(base, "throughput_per_s", &base_tp) ||
      !TopLevelNumber(base, "hardware_threads", &base_hw)) {
    std::fprintf(stderr,
                 "--check: missing throughput_per_s/hardware_threads field\n");
    return 1;
  }
  if (fresh_hw != base_hw) {
    std::printf("--check: WARN hardware_threads mismatch (baseline %.0f, "
                "here %.0f); throughput gate skipped\n",
                base_hw, fresh_hw);
    return 0;
  }
  if (base_tp <= 0) {
    std::fprintf(stderr, "--check: baseline throughput_per_s is %.3f\n",
                 base_tp);
    return 1;
  }
  const double floor = (1.0 - kTolerance) * base_tp;
  if (fresh_tp < floor) {
    std::fprintf(stderr,
                 "--check: FAIL single-thread throughput %.1f/s regressed "
                 "beyond %.0f%% of baseline %.1f/s (floor %.1f/s)\n",
                 fresh_tp, 100.0 * kTolerance, base_tp, floor);
    return 1;
  }
  std::printf("--check: ok single-thread throughput %.1f/s vs baseline "
              "%.1f/s (floor %.1f/s)\n",
              fresh_tp, base_tp, floor);
  return 0;
}

}  // namespace
}  // namespace disc::bench

int main(int argc, char** argv) {
  bool large = false;
  bool check = false;
  std::string baseline = "bench/baselines/BENCH_parallel_save.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--check=", 8) == 0) {
      check = true;
      baseline = argv[i] + 8;
    } else {
      std::fprintf(stderr, "usage: %s [--large] [--check[=BASELINE]]\n",
                   argv[0]);
      return 2;
    }
  }
  const int rc = disc::bench::Run(large);
  if (rc != 0) return rc;
  if (check) {
    return disc::bench::CheckAgainstBaseline(
        disc::bench::BenchOutPath("BENCH_parallel_save.json"), baseline);
  }
  return 0;
}
