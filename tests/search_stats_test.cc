// Per-search SearchStats accounting through the save pipeline (DESIGN.md
// §8): determinism across thread counts, the registry flush, and the trace
// export. The acceptance bar this suite pins down: stats and trace account
// for every node expansion and index query bit-identically whether the
// batch ran on 1, 4 or 8 threads.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/outlier_saving.h"
#include "core/search_stats.h"
#include "data/generators.h"

namespace disc {
namespace {

/// Same seeded noisy scenario as the parallel-save suite: three Gaussian
/// clusters with a slice of rows corrupted on 1-2 attributes plus a couple
/// of natural outliers.
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

TEST(SearchStats, MergeFromSumsWorkAndKeepsEarliestStart) {
  SearchStats a;
  a.nodes_expanded = 3;
  a.index_queries = 5;
  a.wall_nanos = 100;
  a.start_ns = 900;
  SearchStats b;
  b.nodes_expanded = 4;
  b.dcache_hits = 2;
  b.wall_nanos = 50;
  b.start_ns = 700;
  a.MergeFrom(b);
  EXPECT_EQ(a.nodes_expanded, 7u);
  EXPECT_EQ(a.index_queries, 5u);
  EXPECT_EQ(a.dcache_hits, 2u);
  EXPECT_EQ(a.wall_nanos, 150u);
  EXPECT_EQ(a.start_ns, 700u);  // earliest nonzero wins
  SearchStats c;  // zero start must not clobber an established one
  a.MergeFrom(c);
  EXPECT_EQ(a.start_ns, 700u);
}

TEST(SearchStats, SameWorkIgnoresTimingOnly) {
  SearchStats a;
  a.prop3_bounds = 9;
  SearchStats b = a;
  b.wall_nanos = 12345;
  b.start_ns = 999;
  EXPECT_TRUE(a.SameWork(b));
  b.prop3_bounds = 10;
  EXPECT_FALSE(a.SameWork(b));
}

TEST(SearchStats, FlushToSkipsZeroCountersAndPrefixesNames) {
  MetricsRegistry registry;
  SearchStats stats;
  stats.nodes_expanded = 11;
  stats.index_queries = 4;
  stats.FlushTo(&registry);
  EXPECT_EQ(registry.GetCounter("disc_save_nodes_expanded_total")->Value(),
            11u);
  EXPECT_EQ(registry.GetCounter("disc_save_index_queries_total")->Value(), 4u);
  // Zero counters stay unregistered — the snapshot only shows work done.
  const std::string json = registry.ToJson();
  EXPECT_EQ(json.find("disc_save_lb_prunes_total"), std::string::npos) << json;
  stats.FlushTo(nullptr);  // null registry is a no-op, not a crash
}

/// Runs the pipeline over the fixed scenario with the given thread count.
SavedDataset RunPipeline(const Relation& data, std::size_t threads,
                         MetricsRegistry* metrics = nullptr,
                         TraceSink* trace = nullptr) {
  DistanceEvaluator evaluator(data.schema());
  OutlierSavingOptions opts = BaseOptions();
  opts.num_threads = threads;
  opts.metrics = metrics;
  opts.trace = trace;
  return SaveOutliers(data, evaluator, opts);
}

TEST(SearchStatsPipeline, RecordStatsIdenticalAcross148Threads) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  SavedDataset one = RunPipeline(data, 1);
  ASSERT_TRUE(one.status.ok());
  ASSERT_GT(one.records.size(), 10u);

  for (std::size_t threads : {4u, 8u}) {
    SavedDataset many = RunPipeline(data, threads);
    ASSERT_TRUE(many.status.ok());
    ASSERT_EQ(many.records.size(), one.records.size());
    for (std::size_t i = 0; i < one.records.size(); ++i) {
      EXPECT_TRUE(one.records[i].stats.SameWork(many.records[i].stats))
          << "record " << i << " at " << threads << " threads";
    }
    EXPECT_TRUE(one.split_stats.SameWork(many.split_stats));
    EXPECT_TRUE(one.stats().SameWork(many.stats()));
  }
}

TEST(SearchStatsPipeline, SplitAndSearchesAreFullyAccounted) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  SavedDataset saved = RunPipeline(data, 1);
  ASSERT_TRUE(saved.status.ok());
  EXPECT_GT(saved.split_stats.index_queries, 0u);
  for (const OutlierRecord& rec : saved.records) {
    // Every search did real, fully-accounted work.
    EXPECT_GT(rec.stats.nodes_expanded, 0u);
    EXPECT_EQ(rec.stats.visited_sets, rec.stats.nodes_expanded);
  }
}

TEST(SearchStatsPipeline, RegistryCountersMatchRecordAggregates) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  MetricsRegistry registry;
  SavedDataset saved = RunPipeline(data, 4, &registry);
  ASSERT_TRUE(saved.status.ok());

  SearchStats searches;  // records only — the split flushes separately
  for (const OutlierRecord& rec : saved.records) {
    searches.MergeFrom(rec.stats);
  }
  EXPECT_EQ(registry.GetCounter("disc_save_nodes_expanded_total")->Value(),
            searches.nodes_expanded);
  EXPECT_EQ(registry.GetCounter("disc_save_index_queries_total")->Value(),
            searches.index_queries);
  EXPECT_EQ(registry.GetCounter("disc_save_prop3_bounds_total")->Value(),
            searches.prop3_bounds);
  EXPECT_EQ(registry.GetCounter("disc_save_batches_total")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("disc_save_outliers_total")->Value(),
            saved.records.size());
  EXPECT_EQ(registry.GetCounter("disc_split_index_queries_total")->Value(),
            saved.split_stats.index_queries);

  // CountTermination(t) must equal the flushed per-termination counter for
  // every termination, and the per-disposition counters must tally the
  // same way.
  constexpr SaveTermination kTerminations[] = {
      SaveTermination::kCompleted,   SaveTermination::kVisitBudget,
      SaveTermination::kQueryBudget, SaveTermination::kDeadline,
      SaveTermination::kCancelled,   SaveTermination::kInfeasible};
  std::size_t termination_sum = 0;
  for (SaveTermination t : kTerminations) {
    const std::string name =
        std::string("disc_save_termination_") + SaveTerminationName(t) +
        "_total";
    EXPECT_EQ(registry.GetCounter(name)->Value(), saved.CountTermination(t))
        << name;
    termination_sum += saved.CountTermination(t);
  }
  EXPECT_EQ(termination_sum, saved.records.size());
  constexpr OutlierDisposition kDispositions[] = {
      OutlierDisposition::kSaved, OutlierDisposition::kNaturalOutlier,
      OutlierDisposition::kInfeasible};
  std::size_t disposition_sum = 0;
  for (OutlierDisposition d : kDispositions) {
    const std::string name =
        std::string("disc_save_disposition_") + OutlierDispositionName(d) +
        "_total";
    EXPECT_EQ(registry.GetCounter(name)->Value(), saved.CountDisposition(d))
        << name;
    disposition_sum += saved.CountDisposition(d);
  }
  EXPECT_EQ(disposition_sum, saved.records.size());

  // One histogram observation per search.
  Histogram* wall = registry.GetHistogram("disc_save_search_wall_seconds", {});
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->Snap().count, saved.records.size());
}

TEST(SearchStatsPipeline, RegistrySnapshotsIdenticalAcrossThreadCounts) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  std::string baseline;
  for (std::size_t threads : {1u, 4u, 8u}) {
    MetricsRegistry registry;
    SavedDataset saved = RunPipeline(data, threads, &registry);
    ASSERT_TRUE(saved.status.ok());
    // The histogram carries wall-clock observations, so compare only the
    // deterministic counters section.
    std::string json = registry.ToJson();
    const std::string counters =
        json.substr(0, json.find("\"histograms\""));
    if (threads == 1) {
      baseline = counters;
      EXPECT_NE(baseline.find("disc_save_nodes_expanded_total"),
                std::string::npos);
    } else {
      EXPECT_EQ(counters, baseline) << "at " << threads << " threads";
    }
  }
}

/// Reads a whole file into a string (test helper).
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the integer value of `"key":<n>` from a flat JSONL line.
std::uint64_t JsonUint(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

/// Splits the trace file into lines grouped by span kind, preserving order.
void SpansByKind(const std::string& path,
                 std::map<std::string, std::vector<std::string>>* by_kind) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string needle = "\"span\":\"";
    const std::size_t at = line.find(needle);
    ASSERT_NE(at, std::string::npos) << line;
    const std::size_t start = at + needle.size();
    (*by_kind)[line.substr(start, line.find('"', start) - start)]
        .push_back(line);
  }
}

TEST(SearchStatsPipeline, TraceAccountsForEverySearch) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::string path = ::testing::TempDir() + "/disc_trace_test.jsonl";
  JsonlTraceSink sink(path);
  SavedDataset saved = RunPipeline(data, 4, nullptr, &sink);
  ASSERT_TRUE(saved.status.ok());
  ASSERT_TRUE(sink.Close().ok());

  std::map<std::string, std::vector<std::string>> by_kind;
  SpansByKind(path, &by_kind);
  const std::size_t n = saved.records.size();
  // One split span, one search span per outlier, one save_outlier span per
  // record from the merge loop. The hierarchical layer adds phase and
  // pool-chunk children under each search (covered by
  // trace_determinism_test); here only the top-level cardinalities matter.
  ASSERT_EQ(by_kind["split"].size(), 1u) << Slurp(path);
  ASSERT_EQ(by_kind["search"].size(), n) << Slurp(path);
  ASSERT_EQ(by_kind["save_outlier"].size(), n) << Slurp(path);
  EXPECT_EQ(JsonUint(by_kind["split"][0], "index_queries"),
            saved.split_stats.index_queries);

  // Worker search spans arrive in completion order; each must key back to
  // its record via `ordinal` and carry that record's exact work counters.
  std::vector<bool> seen(n, false);
  for (const std::string& line : by_kind["search"]) {
    const std::size_t ordinal =
        static_cast<std::size_t>(JsonUint(line, "ordinal"));
    ASSERT_LT(ordinal, n) << line;
    EXPECT_FALSE(seen[ordinal]) << "duplicate ordinal: " << line;
    seen[ordinal] = true;
    EXPECT_EQ(JsonUint(line, "nodes_expanded"),
              saved.records[ordinal].stats.nodes_expanded)
        << line;
    EXPECT_EQ(JsonUint(line, "index_queries"),
              saved.records[ordinal].stats.index_queries)
        << line;
  }

  SearchStats from_trace;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& line = by_kind["save_outlier"][i];
    const OutlierRecord& rec = saved.records[i];
    EXPECT_EQ(JsonUint(line, "row"), rec.row);
    EXPECT_EQ(JsonUint(line, "nodes_expanded"), rec.stats.nodes_expanded);
    EXPECT_EQ(JsonUint(line, "index_queries"), rec.stats.index_queries);
    EXPECT_NE(line.find(std::string("\"disposition\":\"") +
                        OutlierDispositionName(rec.disposition) + "\""),
              std::string::npos)
        << line;
    from_trace.nodes_expanded += JsonUint(line, "nodes_expanded");
    from_trace.index_queries += JsonUint(line, "index_queries");
  }
  // The trace accounts for every node expansion and index query: summing
  // the spans reproduces the pipeline aggregate exactly.
  SearchStats total = saved.stats();
  EXPECT_EQ(from_trace.nodes_expanded, total.nodes_expanded);
  EXPECT_EQ(from_trace.index_queries + saved.split_stats.index_queries,
            total.index_queries);
  std::remove(path.c_str());
}

TEST(SearchStatsPipeline, SearchSpanCountMatchesOutliersAtEveryThreadCount) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  for (std::size_t threads : {1u, 4u, 8u}) {
    const std::string path = ::testing::TempDir() + "/disc_trace_parity_" +
                             std::to_string(threads) + ".jsonl";
    JsonlTraceSink sink(path);
    SavedDataset saved = RunPipeline(data, threads, nullptr, &sink);
    ASSERT_TRUE(saved.status.ok());
    ASSERT_TRUE(sink.Close().ok());
    std::map<std::string, std::vector<std::string>> by_kind;
    SpansByKind(path, &by_kind);
    // Span-count parity: exactly one search span per outlier, no matter how
    // the batch was scheduled across workers.
    EXPECT_EQ(by_kind["search"].size(), saved.records.size())
        << "at " << threads << " threads";
    EXPECT_EQ(by_kind["save_outlier"].size(), saved.records.size())
        << "at " << threads << " threads";
    std::remove(path.c_str());
  }
}

TEST(SearchStatsPipeline, StatsAggregateEqualsSplitPlusRecords) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  SavedDataset saved = RunPipeline(data, 1);
  ASSERT_TRUE(saved.status.ok());
  SearchStats manual = saved.split_stats;
  for (const OutlierRecord& rec : saved.records) manual.MergeFrom(rec.stats);
  EXPECT_TRUE(manual.SameWork(saved.stats()));
  EXPECT_EQ(manual.wall_nanos, saved.stats().wall_nanos);
}

TraceSpan UnitSpan() {
  TraceSpan span;
  span.name = "unit";
  span.start_ns = TraceNowNs();
  span.duration_ns = 42;
  span.Int("k", 7).Str("s", "v").Num("x", 1.5);
  return span;
}

TEST(JsonlSinkTest, RebasesTimestampsAndReportsIoErrors) {
  const std::string path = ::testing::TempDir() + "/disc_trace_rebase.jsonl";
  {
    JsonlTraceSink trace_sink(path);
    JsonlSink<TraceSpan>& sink = trace_sink;
    sink.Emit(UnitSpan());
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE(sink.Close().ok());
    ASSERT_TRUE(sink.Close().ok());  // idempotent
    sink.Emit(UnitSpan());           // after Close: dropped, not appended
  }
  const std::string line = Slurp(path);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1) << line;
  EXPECT_NE(line.find("\"span\":\"unit\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"dur_ns\":42"), std::string::npos) << line;
  EXPECT_NE(line.find("\"k\":7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"s\":\"v\""), std::string::npos) << line;
  // Rebased onto the sink epoch: t_ns is tiny, not a raw steady-clock stamp.
  EXPECT_LT(JsonUint(line, "t_ns"), 10'000'000'000ull) << line;
  std::remove(path.c_str());

  JsonlTraceSink unopenable("/nonexistent-dir/trace.jsonl");
  unopenable.Emit(UnitSpan());
  EXPECT_TRUE(unopenable.ok());  // buffered writes cannot fail yet
  EXPECT_FALSE(unopenable.Close().ok());
  EXPECT_FALSE(unopenable.ok());
  EXPECT_FALSE(unopenable.Close().ok());  // the error sticks

  // One span fits the stdio buffer, so the write fails only at the flush or
  // the close of the file.
  JsonlTraceSink full("/dev/full");
  full.Emit(UnitSpan());
  EXPECT_FALSE(full.Close().ok());
  EXPECT_FALSE(full.ok());

  // The stdout form (an empty path) checks its write and flush the same
  // way. Point fd 1 at /dev/full for the write, then restore it.
  std::fflush(stdout);
  const int saved_stdout = ::dup(1);
  ASSERT_GE(saved_stdout, 0);
  const int dev_full = ::open("/dev/full", O_WRONLY);
  ASSERT_GE(dev_full, 0);
  ASSERT_GE(::dup2(dev_full, 1), 0);
  ::close(dev_full);
  Status status;
  {
    JsonlSink<TraceSpan> to_stdout(
        "", "trace", [](JsonWriter& json, const TraceSpan& span) {
          AppendTraceSpanJson(json, span, 0);
        });
    to_stdout.Emit(UnitSpan());
    status = to_stdout.Close();
  }
  ::dup2(saved_stdout, 1);
  ::close(saved_stdout);
  std::clearerr(stdout);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("stdout"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace disc
