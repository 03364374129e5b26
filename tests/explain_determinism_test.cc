// Decision-log determinism through the full save pipeline (DESIGN.md §14).
// The contract: with the trace batch counter pinned, the serialized explain
// log of every search — trace ids, event streams, bounds, incumbents,
// donors, derived summaries — is bit-identical across thread counts;
// only wall_nanos is excluded (nondeterministic by contract, like
// SearchStats::wall_nanos). Runs in the tsan-obs CI shard so the per-worker
// collector slots and batch-end drain are also raced under TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "distance/evaluator.h"
#include "obs/explain.h"

namespace disc {
namespace {

/// Thread-safe in-memory sink capturing every emitted decision log.
class CaptureSink : public ExplainSink {
 public:
  void Emit(const ExplainSearchLog& log) override {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(log);
  }

  std::vector<ExplainSearchLog> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(logs_);
  }

 private:
  std::mutex mu_;
  std::vector<ExplainSearchLog> logs_;
};

/// The noisy scenario shared with the trace-determinism suite: three
/// Gaussian clusters, a slice of corrupted rows, two natural outliers.
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

/// Runs the pipeline at `threads` with the batch counter pinned, so every
/// run derives the same batch seed and therefore the same trace ids.
std::vector<ExplainSearchLog> RunExplained(const Relation& data,
                                           std::size_t threads) {
  SetTraceBatchCounterForTest(1234);
  CaptureSink sink;
  DistanceEvaluator evaluator(data.schema());
  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.save.kappa = 2;
  opts.num_threads = threads;
  opts.explain = &sink;
  SavedDataset saved = SaveOutliers(data, evaluator, opts);
  EXPECT_TRUE(saved.status.ok()) << saved.status.ToString();
  EXPECT_GT(saved.records.size(), 10u);
  return sink.Take();
}

/// The scheduling-independent identity of a run: every log serialized in
/// emission order with wall_nanos zeroed — which also zeroes the wall field
/// inside the derived summary, so the comparison covers events, bounds,
/// trace ids, counters and analytics all at once.
std::vector<std::string> Serialized(std::vector<ExplainSearchLog> logs) {
  std::vector<std::string> out;
  out.reserve(logs.size());
  for (ExplainSearchLog& log : logs) {
    log.wall_nanos = 0;
    JsonWriter json;
    AppendExplainSearchJson(json, log);
    out.push_back(json.str());
  }
  return out;
}

TEST(ExplainDeterminism, SerializedLogsIdenticalAcross148Threads) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::vector<std::string> baseline = Serialized(RunExplained(data, 1));
  ASSERT_FALSE(baseline.empty());

  for (std::size_t threads : {4u, 8u}) {
    const std::vector<std::string> got =
        Serialized(RunExplained(data, threads));
    ASSERT_EQ(got.size(), baseline.size()) << "at " << threads << " threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], baseline[i])
          << "log " << i << " diverges at " << threads << " threads";
    }
  }
}

TEST(ExplainDeterminism, RepeatedRunEmitsTheSameLogs) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::vector<std::string> first = Serialized(RunExplained(data, 4));
  const std::vector<std::string> second = Serialized(RunExplained(data, 4));
  EXPECT_EQ(first, second);
}

TEST(ExplainDeterminism, EmissionOrderAndTraceIdsAreDeterministic) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::vector<ExplainSearchLog> logs = RunExplained(data, 8);
  ASSERT_FALSE(logs.empty());
  // The batch-end drain sorts by ordinal: emission order is the input
  // order regardless of which worker ran which search.
  for (std::size_t i = 1; i < logs.size(); ++i) {
    EXPECT_LT(logs[i - 1].ordinal, logs[i].ordinal);
  }
  // Explain-only runs still derive ids (no TraceSink attached here), and
  // every search links to a distinct trace.
  for (std::size_t i = 0; i < logs.size(); ++i) {
    EXPECT_NE(logs[i].trace_id, 0u) << "log " << i;
    for (std::size_t j = i + 1; j < logs.size(); ++j) {
      EXPECT_NE(logs[i].trace_id, logs[j].trace_id)
          << "logs " << i << " and " << j << " share a trace id";
    }
  }
}

TEST(ExplainDeterminism, EventStreamsRederiveTheStatsCounters) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::vector<ExplainSearchLog> logs = RunExplained(data, 4);
  ASSERT_FALSE(logs.empty());
  for (const ExplainSearchLog& log : logs) {
    ASSERT_EQ(log.dropped_events, 0u) << "ordinal " << log.ordinal;
    std::uint64_t lb_like = 0;
    std::uint64_t node_events = 0;
    std::uint64_t reverts = 0;
    for (const ExplainEvent& event : log.events) {
      if (event.action == ExplainAction::kPruneLb ||
          event.action == ExplainAction::kInfeasible) {
        ++lb_like;
      }
      // memo_hit revisits a set the memo already counted; the seed is
      // injected before the walk — both are excluded from the node count.
      if (event.action == ExplainAction::kRevertRefine) {
        ++reverts;
      } else if (!event.seed && event.action != ExplainAction::kMemoHit) {
        ++node_events;
      }
    }
    EXPECT_EQ(lb_like, log.lb_prunes) << "ordinal " << log.ordinal;
    EXPECT_EQ(node_events, log.visited_sets) << "ordinal " << log.ordinal;
    EXPECT_EQ(reverts, log.revert_refines) << "ordinal " << log.ordinal;
  }
}

}  // namespace
}  // namespace disc
