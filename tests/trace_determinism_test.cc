// Span-set determinism of the hierarchical trace through the full save
// pipeline (DESIGN.md §13). The contract: with the batch counter pinned,
// the set of (trace_id, span_id, parent_id, name) identities is
// bit-identical across thread counts — excluding the one span kind that
// only exists on the scheduler path (estimate) when comparing sequential vs
// parallel, and including it between two parallel runs. Parent links must
// be complete and acyclic in every configuration. Runs in the tsan-obs CI
// shard so the lock-free collector path is also raced under TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/trace.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "distance/evaluator.h"

namespace disc {
namespace {

/// (trace_id, span_id, parent_id, name): the scheduling-independent
/// identity of a span. Durations and timestamps are intentionally absent.
using SpanIdentity =
    std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::string>;

/// Thread-safe in-memory sink capturing every emitted span.
class CaptureSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  std::vector<TraceSpan> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// The noisy scenario shared with the search-stats suite: three Gaussian
/// clusters, a slice of corrupted rows, two natural outliers.
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
/// run derives the same batch seed and therefore the same ids.
std::vector<TraceSpan> RunTraced(const Relation& data, std::size_t threads) {
  SetTraceBatchCounterForTest(1234);
  CaptureSink sink;
  DistanceEvaluator evaluator(data.schema());
  OutlierSavingOptions opts;
  opts.constraint = {1.6, 5};
  opts.save.kappa = 2;
  opts.num_threads = threads;
  opts.trace = &sink;
  SavedDataset saved = SaveOutliers(data, evaluator, opts);
  EXPECT_TRUE(saved.status.ok()) << saved.status.ToString();
  EXPECT_GT(saved.records.size(), 10u);
  return sink.Take();
}

std::multiset<SpanIdentity> Identities(const std::vector<TraceSpan>& spans,
                                       const std::set<std::string>& exclude) {
  std::multiset<SpanIdentity> out;
  for (const TraceSpan& span : spans) {
    if (span.trace_id == 0) continue;  // the flat split span
    if (exclude.count(span.name) != 0) continue;
    out.emplace(span.trace_id, span.span_id, span.parent_id, span.name);
  }
  return out;
}

TEST(TraceDeterminism, SpanSetIdenticalAcross148Threads) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  // Estimate spans only exist when the scheduler runs the batch; everything
  // else must match the sequential run exactly.
  const std::set<std::string> scheduler_only = {"estimate"};
  const std::multiset<SpanIdentity> baseline =
      Identities(RunTraced(data, 1), scheduler_only);
  ASSERT_FALSE(baseline.empty());

  for (std::size_t threads : {4u, 8u}) {
    const std::multiset<SpanIdentity> got =
        Identities(RunTraced(data, threads), scheduler_only);
    EXPECT_EQ(got, baseline) << "at " << threads << " threads";
  }
}

TEST(TraceDeterminism, FullSpanSetIncludingEstimatesIdentical4v8Threads) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::multiset<SpanIdentity> four = Identities(RunTraced(data, 4), {});
  const std::multiset<SpanIdentity> eight =
      Identities(RunTraced(data, 8), {});
  ASSERT_FALSE(four.empty());
  // Estimate ids derive from the input ordinal — not from which worker ran
  // the estimate — so even the scheduler-only spans agree between parallel
  // runs.
  EXPECT_EQ(four, eight);
}

TEST(TraceDeterminism, ParentLinksCompleteAndAcyclic) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::vector<TraceSpan> spans = RunTraced(data, 4);

  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> parent_of;
  std::set<std::uint64_t> traces;
  for (const TraceSpan& span : spans) {
    if (span.trace_id == 0) continue;
    const auto key = std::make_pair(span.trace_id, span.span_id);
    // No two spans share an id within a trace.
    ASSERT_EQ(parent_of.count(key), 0u)
        << span.name << " duplicates span_id " << span.span_id;
    parent_of[key] = span.parent_id;
    traces.insert(span.trace_id);
  }

  std::size_t roots = 0;
  for (const TraceSpan& span : spans) {
    if (span.trace_id == 0) continue;
    if (span.parent_id == 0) {
      EXPECT_EQ(span.name, "save_outlier");
      ++roots;
      continue;
    }
    // Complete: every parent_id names a span present in the same trace.
    ASSERT_EQ(parent_of.count({span.trace_id, span.parent_id}), 1u)
        << span.name << " orphaned under trace " << span.trace_id;
    // Acyclic: walking up reaches the root in fewer steps than the trace
    // has spans.
    std::uint64_t cursor = span.span_id;
    std::size_t hops = 0;
    while (cursor != 0) {
      ASSERT_LE(++hops, parent_of.size()) << "parent cycle at " << span.name;
      cursor = parent_of[{span.trace_id, cursor}];
    }
  }
  // One save_outlier root per trace, no more, no less.
  EXPECT_EQ(roots, traces.size());
}

TEST(TraceDeterminism, RepeatedRunEmitsTheSameSpanSet) {
  Relation data = MakeNoisyDataset(/*seed=*/97);
  const std::multiset<SpanIdentity> first = Identities(RunTraced(data, 4), {});
  const std::multiset<SpanIdentity> second =
      Identities(RunTraced(data, 4), {});
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace disc
