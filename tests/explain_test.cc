// The explain layer (DESIGN.md §14): event gap semantics, the decision
// call and its capture cap, per-search summaries, the per-worker buffer,
// the JSONL sink, the /explainz recorder, the batch metrics flush — and the
// end-to-end contract that the event stream of a real save re-derives the
// search's own SearchStats counters on both the DISC and the exact path,
// and joins its spans on one trace id.

#include "obs/explain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "core/observation.h"
#include "core/outlier_saving.h"
#include "core/search_budget.h"
#include "data/generators.h"
#include "distance/evaluator.h"
#include "index/index_factory.h"

namespace disc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ExplainEvent MakeEvent(std::uint64_t x_bits, ExplainAction action,
                       double lb = std::numeric_limits<double>::quiet_NaN(),
                       double ub = std::numeric_limits<double>::quiet_NaN(),
                       double incumbent = kInf) {
  ExplainEvent event;
  event.x_bits = x_bits;
  event.action = action;
  event.lb = lb;
  event.ub = ub;
  event.incumbent = incumbent;
  return event;
}

std::uint64_t Count(const ExplainSummary& summary, ExplainAction action) {
  return summary.action_counts[static_cast<std::size_t>(action)];
}

TEST(ExplainEvent, GapNeedsBothFiniteBounds) {
  ExplainEvent event;
  EXPECT_TRUE(std::isnan(event.gap()));  // both bounds default to NaN
  event.lb = 2.0;
  EXPECT_TRUE(std::isnan(event.gap()));
  event.ub = 5.0;
  EXPECT_DOUBLE_EQ(event.gap(), 3.0);
  event.lb = kInf;  // infeasible lower bound: no meaningful gap
  EXPECT_TRUE(std::isnan(event.gap()));
}

TEST(ExplainEvent, ActionNamesAreTheSerializedContract) {
  EXPECT_STREQ(ExplainActionName(ExplainAction::kExpand), "expand");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kPruneLb), "prune_lb");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kPruneBudget),
               "prune_budget");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kInfeasible), "infeasible");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kIncumbentUpdate),
               "incumbent_update");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kMemoHit), "memo_hit");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kRevertRefine),
               "revert_refine");
  EXPECT_STREQ(ExplainActionName(ExplainAction::kPruneDominated),
               "prune_dominated");
}

TEST(RecordDecision, CountsEveryDecisionAndCapsStoredEvents) {
  SearchObserver observer;
  observer.capture = true;
  BudgetGauge gauge(nullptr);
  gauge.set_observer(&observer);
  for (std::size_t i = 0; i < kExplainMaxEventsPerSearch + 3; ++i) {
    gauge.RecordDecision(MakeEvent(i, ExplainAction::kExpand));
  }
  EXPECT_EQ(observer.events.size(), kExplainMaxEventsPerSearch);
  EXPECT_EQ(observer.dropped_events, 3u);
  // The stored prefix is the chronological prefix, not a sample.
  EXPECT_EQ(observer.events.back().x_bits, kExplainMaxEventsPerSearch - 1);

  // The stats count every decision: past the cap, with capture off, and
  // with no observer at all.
  SearchObserver timing_only;  // spans/profiler only: nothing is stored
  BudgetGauge untraced(nullptr);
  untraced.set_observer(&timing_only);
  BudgetGauge bare(nullptr);
  for (BudgetGauge* g : {&gauge, &untraced, &bare}) {
    g->RecordDecision(MakeEvent(1, ExplainAction::kPruneLb, 2.0));
    g->RecordDecision(MakeEvent(2, ExplainAction::kInfeasible, kInf));
    g->RecordDecision(MakeEvent(3, ExplainAction::kPruneDominated));
    g->RecordDecision(MakeEvent(4, ExplainAction::kRevertRefine));
    EXPECT_EQ(g->stats().lb_prunes, 2u);
    EXPECT_EQ(g->stats().revert_refines, 1u);
  }
  EXPECT_EQ(observer.dropped_events, 7u);
  EXPECT_TRUE(timing_only.events.empty());
  EXPECT_EQ(timing_only.dropped_events, 0u);
}

/// A small feasible search log touching every derived-summary feature:
/// a seed splice, a pruned and an infeasible subtree, a memo hit, one real
/// incumbent adoption, and a post-pass revert.
ExplainSearchLog MakeRichLog() {
  ExplainSearchLog log;
  log.ordinal = 9;
  log.trace_id = 1234;
  log.feasible = true;
  log.final_cost = 7.5;

  ExplainEvent seed =
      MakeEvent(0, ExplainAction::kIncumbentUpdate, /*lb=*/NAN, /*ub=*/10.0,
                /*incumbent=*/10.0);
  seed.seed = true;
  seed.donor_row = 7;
  log.events.push_back(seed);
  log.events.push_back(
      MakeEvent(0b0001, ExplainAction::kExpand, 2.0, 12.0, 10.0));
  log.events.push_back(MakeEvent(0b0010, ExplainAction::kPruneLb, 11.0,
                                 /*ub=*/NAN, 10.0));
  ExplainEvent adopt =
      MakeEvent(0b0101, ExplainAction::kIncumbentUpdate, 1.0, 8.0, 8.0);
  adopt.donor_row = 3;
  log.events.push_back(adopt);
  log.events.push_back(MakeEvent(0b0001, ExplainAction::kMemoHit, /*lb=*/NAN,
                                 /*ub=*/NAN, 8.0));
  log.events.push_back(MakeEvent(0b1000, ExplainAction::kInfeasible, kInf));
  log.events.push_back(
      MakeEvent(0b0100, ExplainAction::kRevertRefine, /*lb=*/NAN, 7.5, 7.5));

  log.visited_sets = 4;  // non-seed, non-memo node events: expand,
                         // prune_lb, adopt, infeasible
  log.lb_prunes = 2;     // prune_lb + infeasible
  log.nodes_expanded = 1;
  log.revert_refines = 1;
  return log;
}

TEST(Summarize, DerivesActionCountsTimelineAndBoundRatios) {
  const ExplainSearchLog log = MakeRichLog();
  const ExplainSummary summary = Summarize(log);

  std::uint64_t counted = 0;
  for (std::uint64_t count : summary.action_counts) counted += count;
  EXPECT_EQ(counted, log.events.size());
  EXPECT_EQ(Count(summary, ExplainAction::kExpand), 1u);
  EXPECT_EQ(Count(summary, ExplainAction::kPruneLb), 1u);
  EXPECT_EQ(Count(summary, ExplainAction::kPruneBudget), 0u);
  EXPECT_EQ(Count(summary, ExplainAction::kInfeasible), 1u);
  EXPECT_EQ(Count(summary, ExplainAction::kIncumbentUpdate), 2u);
  EXPECT_EQ(Count(summary, ExplainAction::kMemoHit), 1u);
  EXPECT_EQ(Count(summary, ExplainAction::kRevertRefine), 1u);

  // The seed adoption is the first feasible answer, at depth |∅| = 0.
  EXPECT_EQ(summary.first_feasible_depth, 0);
  ASSERT_EQ(summary.timeline.size(), 2u);
  EXPECT_EQ(summary.timeline[0].event_index, 0u);
  EXPECT_EQ(summary.timeline[0].depth, 0u);
  EXPECT_DOUBLE_EQ(summary.timeline[0].cost, 10.0);
  EXPECT_EQ(summary.timeline[1].event_index, 3u);
  EXPECT_EQ(summary.timeline[1].depth, 2u);  // popcount(0b0101)
  EXPECT_DOUBLE_EQ(summary.timeline[1].cost, 8.0);

  // Best finite lb is the pruning bound 11; first finite ub is the seed 10.
  EXPECT_DOUBLE_EQ(summary.max_lb_over_cost, 11.0 / 7.5);
  EXPECT_DOUBLE_EQ(summary.first_ub_over_cost, 10.0 / 7.5);

  // Gaps exist only where both bounds are finite: expand (10) + adopt (7).
  EXPECT_EQ(summary.gap_events, 2u);
  EXPECT_DOUBLE_EQ(summary.min_gap, 7.0);
  EXPECT_DOUBLE_EQ(summary.mean_gap, 8.5);
}

TEST(Summarize, InfeasibleSearchHasNoRatiosOrTimeline) {
  ExplainSearchLog log;
  log.feasible = false;
  log.events.push_back(MakeEvent(0b1, ExplainAction::kInfeasible, kInf));
  log.events.push_back(MakeEvent(0b10, ExplainAction::kPruneLb, 4.0));

  const ExplainSummary summary = Summarize(log);
  EXPECT_EQ(summary.first_feasible_depth, -1);
  EXPECT_TRUE(summary.timeline.empty());
  EXPECT_TRUE(std::isnan(summary.max_lb_over_cost));
  EXPECT_TRUE(std::isnan(summary.first_ub_over_cost));
  EXPECT_EQ(summary.gap_events, 0u);
  EXPECT_TRUE(std::isnan(summary.min_gap));
  EXPECT_TRUE(std::isnan(summary.mean_gap));
}

TEST(Summarize, TimelineCapKeepsEarliestAdoptionsPlusTheFinalOne) {
  ExplainSearchLog log;
  log.feasible = true;
  log.final_cost = 1.0;
  const std::size_t adoptions = kExplainTimelineCap + 5;
  for (std::size_t i = 0; i < adoptions; ++i) {
    const double cost = static_cast<double>(adoptions - i);
    log.events.push_back(MakeEvent(
        (1u << (i % 4)), ExplainAction::kIncumbentUpdate, NAN, cost, cost));
  }

  const ExplainSummary summary = Summarize(log);
  ASSERT_EQ(summary.timeline.size(), kExplainTimelineCap);
  EXPECT_EQ(summary.timeline.front().event_index, 0u);
  EXPECT_EQ(summary.timeline[kExplainTimelineCap - 2].event_index,
            kExplainTimelineCap - 2);
  // The last slot always holds the final adoption, not the cap-th one.
  EXPECT_EQ(summary.timeline.back().event_index, adoptions - 1);
  EXPECT_DOUBLE_EQ(summary.timeline.back().cost, 1.0);
}

bool LogLess(const ExplainSearchLog& a, const ExplainSearchLog& b) {
  return a.ordinal < b.ordinal;
}

TEST(PerWorkerBufferTest, DrainSortsLogsByOrdinalKeepsSlotOrderAndClamps) {
  PerWorkerBuffer<ExplainSearchLog> collector(3);
  auto log = [](std::uint64_t ordinal, std::uint64_t trace_id) {
    ExplainSearchLog l;
    l.ordinal = ordinal;
    l.trace_id = trace_id;
    return l;
  };
  collector.Record(0, log(5, 50));
  collector.Record(2, log(1, 12));
  collector.Record(1, log(1, 11));
  collector.Record(99, log(3, 30));  // out-of-range slot clamps to the last

  std::vector<ExplainSearchLog> drained = collector.Drain(LogLess);
  ASSERT_EQ(drained.size(), 4u);
  // Equal ordinals keep their slot order: slot 1's log before slot 2's,
  // whatever order they were recorded in.
  EXPECT_EQ(drained[0].ordinal, 1u);
  EXPECT_EQ(drained[0].trace_id, 11u);
  EXPECT_EQ(drained[1].ordinal, 1u);
  EXPECT_EQ(drained[1].trace_id, 12u);
  EXPECT_EQ(drained[2].ordinal, 3u);
  EXPECT_EQ(drained[2].trace_id, 30u);
  EXPECT_EQ(drained[3].ordinal, 5u);
  // drain moves, nothing remains
  EXPECT_TRUE(collector.Drain(LogLess).empty());
}

TEST(AppendExplainSearchJson, OmitsNonFiniteAndFlagsInfeasibleLb) {
  ExplainSearchLog log;
  log.feasible = false;  // final_cost stays NaN
  log.events.push_back(MakeEvent(0b1, ExplainAction::kInfeasible, kInf));
  ExplainEvent bounded =
      MakeEvent(0b10, ExplainAction::kExpand, 1.5, 4.0, 6.0);
  bounded.donor_row = 42;
  log.events.push_back(bounded);

  JsonWriter json;
  AppendExplainSearchJson(json, log);
  const std::string& out = json.str();
  EXPECT_EQ(out.find("\"cost\":"), std::string::npos) << out;
  EXPECT_NE(out.find("\"lb_infeasible\":true"), std::string::npos) << out;
  EXPECT_NE(out.find("\"gap\":2.5"), std::string::npos) << out;
  EXPECT_NE(out.find("\"donor_row\":42"), std::string::npos) << out;
  // The infeasible event's infinite lb must not leak as a bare "lb".
  EXPECT_EQ(out.find("\"lb\":inf"), std::string::npos) << out;
  EXPECT_NE(out.find("\"summary\":"), std::string::npos) << out;
}

TEST(JsonlSinkTest, WritesOneLinePerLogAndCloseIsIdempotent) {
  const std::string path =
      ::testing::TempDir() + "disc_explain_sink_test.jsonl";
  {
    ExplainJsonlSink explain_sink(path);
    JsonlSink<ExplainSearchLog>& sink = explain_sink;
    ExplainSearchLog first = MakeRichLog();
    first.ordinal = 0;
    ExplainSearchLog second = MakeRichLog();
    second.ordinal = 1;
    sink.Emit(first);
    sink.Emit(second);
    EXPECT_TRUE(sink.ok());
    EXPECT_TRUE(sink.Close().ok());
    EXPECT_TRUE(sink.Close().ok());  // idempotent
    sink.Emit(first);                // after Close: dropped, not appended
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"ordinal\":" + std::to_string(lines)),
              std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(JsonlSinkTest, UnopenablePathSurfacesOnClose) {
  ExplainJsonlSink sink("/nonexistent-dir-disc-explain/out.jsonl");
  sink.Emit(MakeRichLog());
  EXPECT_TRUE(sink.ok());  // buffered writes cannot fail yet
  EXPECT_FALSE(sink.Close().ok());
  EXPECT_FALSE(sink.ok());
  EXPECT_FALSE(sink.Close().ok());  // the error sticks
}

TEST(ExplainRecorder, TotalsRecentRingAndSlowestTable) {
  ExplainRecorder recorder(/*recent_capacity=*/4, /*slowest_capacity=*/2);
  const std::uint64_t walls[] = {10, 60, 30, 20, 50, 40};
  for (std::size_t i = 0; i < 6; ++i) {
    ExplainSearchLog log = MakeRichLog();
    log.ordinal = 100 + i;
    log.wall_nanos = walls[i];
    recorder.RecordSearch(log);
  }

  const std::string body = recorder.ToJson();
  EXPECT_NE(body.find("\"searches\":6"), std::string::npos) << body;
  EXPECT_NE(body.find("\"events\":42"), std::string::npos) << body;  // 6×7
  EXPECT_NE(body.find("\"incumbent_update\":12"), std::string::npos) << body;

  // Recent ring of 4 keeps ordinals 102..105 oldest-first; 100 is evicted
  // everywhere (wall 10 never makes the slowest table either).
  EXPECT_EQ(body.find("\"ordinal\":100"), std::string::npos) << body;
  const std::size_t recent = body.find("\"recent\":");
  const std::size_t slowest = body.find("\"slowest\":");
  ASSERT_NE(recent, std::string::npos);
  ASSERT_NE(slowest, std::string::npos);
  std::size_t last = recent;
  for (std::uint64_t ordinal : {102, 103, 104, 105}) {
    const std::size_t pos =
        body.find("\"ordinal\":" + std::to_string(ordinal), recent);
    ASSERT_LT(pos, slowest) << ordinal << "\n" << body;
    EXPECT_GT(pos, last) << "recent not oldest-first\n" << body;
    last = pos;
  }
  // Slowest first: wall 60 (ordinal 101) before wall 50 (ordinal 104).
  const std::size_t s60 = body.find("\"wall_nanos\":60", slowest);
  const std::size_t s50 = body.find("\"wall_nanos\":50", slowest);
  ASSERT_NE(s60, std::string::npos) << body;
  ASSERT_NE(s50, std::string::npos) << body;
  EXPECT_LT(s60, s50);
  EXPECT_EQ(body.find("\"wall_nanos\":30", slowest), std::string::npos);

  recorder.Reset();
  const std::string fresh = recorder.ToJson();
  EXPECT_NE(fresh.find("\"searches\":0"), std::string::npos) << fresh;
  EXPECT_EQ(fresh.find("\"ordinal\":"), std::string::npos) << fresh;
}

TEST(ExplainRecorder, GlobalHookAttachesAndDetaches) {
  ASSERT_EQ(GlobalExplainRecorder(), nullptr);
  ExplainRecorder recorder;
  AttachGlobalExplainRecorder(&recorder);
  EXPECT_EQ(GlobalExplainRecorder(), &recorder);
  AttachGlobalExplainRecorder(nullptr);
  EXPECT_EQ(GlobalExplainRecorder(), nullptr);
}

TEST(FlushExplainMetrics, CountersAndGapHistogramMatchTheLogs) {
  MetricsRegistry metrics;
  ExplainSearchLog first = MakeRichLog();
  ExplainSearchLog second = MakeRichLog();
  second.ordinal = 10;
  second.dropped_events = 4;
  second.abandoned_scans = 2;
  FlushExplainMetrics(&metrics, {first, second});

  EXPECT_EQ(metrics.GetCounter("disc_explain_searches_total")->Value(), 2u);
  EXPECT_EQ(metrics.GetCounter("disc_explain_events_total")->Value(), 14u);
  EXPECT_EQ(metrics.GetCounter("disc_explain_events_dropped_total")->Value(),
            4u);
  EXPECT_EQ(
      metrics.GetCounter("disc_explain_abandoned_scans_total")->Value(), 2u);
  EXPECT_EQ(
      metrics.GetCounter("disc_explain_action_incumbent_update_total")
          ->Value(),
      4u);
  EXPECT_EQ(metrics.GetCounter("disc_explain_action_prune_lb_total")->Value(),
            2u);
  // No prune_budget events → the per-action counter is never registered.
  EXPECT_EQ(
      metrics.GetCounter("disc_explain_action_prune_budget_total")->Value(),
      0u);
  // Two gap-carrying events per log feed the bound-gap histogram.
  Histogram* gap = metrics.GetHistogram(
      "disc_save_bound_gap", {1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0});
  ASSERT_NE(gap, nullptr);
  const Histogram::Snapshot snap = gap->Snap();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 2 * (10.0 + 7.0));
  // Exemplars carry the search's trace id into the exposition.
  EXPECT_EQ(snap.exemplars[4].trace_id, 1234u);  // 7 and 10 land in le=10
}

TEST(FlushExplainMetrics, NullRegistryAndEmptyLogsAreNoOps) {
  FlushExplainMetrics(nullptr, {MakeRichLog()});
  MetricsRegistry metrics;
  FlushExplainMetrics(&metrics, {});
  EXPECT_EQ(metrics.GetCounter("disc_explain_searches_total")->Value(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: the event streams of a real save re-derive SearchStats
// ---------------------------------------------------------------------------

/// Thread-safe capture sink (the exact path emits from the merge loop).
class CaptureExplainSink : public ExplainSink {
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

/// Thread-safe span capture, to join decision logs to their span trees.
class CaptureTraceSink : public TraceSink {
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

/// Two well-separated 2-d clusters with three planted outliers — small
/// enough for the exact saver, rich enough to exercise pruning.
Relation MakeSmallScenario(std::uint64_t seed = 44) {
  Rng rng(seed);
  Relation r(Schema::Numeric(2));
  for (int i = 0; i < 60; ++i) {
    r.AppendUnchecked(
        Tuple::Numeric({rng.Gaussian(0, 0.6), rng.Gaussian(0, 0.6)}));
  }
  for (int i = 0; i < 60; ++i) {
    r.AppendUnchecked(
        Tuple::Numeric({rng.Gaussian(12, 0.6), rng.Gaussian(0, 0.6)}));
  }
  r[5][1] = Value(30.0);
  r[70][1] = Value(-25.0);
  r.AppendUnchecked(Tuple::Numeric({-40, 40}));
  return r;
}

/// The analyzer's per-log identities (scripts/analyze_explain.py), in C++.
void ExpectLogIdentities(const ExplainSearchLog& log) {
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
  if (log.algo == "disc") {
    EXPECT_EQ(lb_like, log.lb_prunes) << "ordinal " << log.ordinal;
    EXPECT_EQ(node_events, log.visited_sets) << "ordinal " << log.ordinal;
  }
  EXPECT_EQ(reverts, log.revert_refines) << "ordinal " << log.ordinal;
}

TEST(ExplainEndToEnd, DiscLogsRederiveSearchStatsAndFeedMetrics) {
  Relation data = MakeSmallScenario();
  DistanceEvaluator evaluator(data.schema());
  CaptureExplainSink sink;
  MetricsRegistry metrics;
  ExplainRecorder recorder;
  AttachGlobalExplainRecorder(&recorder);
  // The explain flush rides the same batch-end path as the disc_save_*
  // counters, which feed the globally attached registry.
  AttachGlobalMetrics(&metrics);

  OutlierSavingOptions opts;
  opts.constraint = {1.5, 5};
  opts.explain = &sink;
  opts.metrics = &metrics;
  SavedDataset saved = SaveOutliers(data, evaluator, opts);
  AttachGlobalMetrics(nullptr);
  AttachGlobalExplainRecorder(nullptr);
  ASSERT_TRUE(saved.status.ok()) << saved.status.ToString();

  std::vector<ExplainSearchLog> logs = sink.Take();
  ASSERT_FALSE(logs.empty());
  std::set<std::uint64_t> ordinals;
  for (const ExplainSearchLog& log : logs) {
    EXPECT_EQ(log.algo, "disc");
    // Explain alone forces id derivation, so logs link to trace ids even
    // with tracing off.
    EXPECT_NE(log.trace_id, 0u);
    EXPECT_TRUE(ordinals.insert(log.ordinal).second)
        << "duplicate ordinal " << log.ordinal;
    ExpectLogIdentities(log);
  }
  // One log per searched outlier, and the batch counters equal file totals.
  EXPECT_EQ(logs.size(), saved.records.size());
  EXPECT_EQ(metrics.GetCounter("disc_explain_searches_total")->Value(),
            logs.size());
  std::uint64_t events = 0;
  for (const ExplainSearchLog& log : logs) events += log.events.size();
  EXPECT_EQ(metrics.GetCounter("disc_explain_events_total")->Value(), events);
  // The globally attached recorder saw the same searches.
  EXPECT_NE(recorder.ToJson().find(
                "\"searches\":" + std::to_string(logs.size())),
            std::string::npos);
}

TEST(ExplainEndToEnd, ExactPathRecordsAnIncumbentTrail) {
  Relation data = MakeSmallScenario();
  DistanceEvaluator evaluator(data.schema());
  CaptureExplainSink sink;
  CaptureTraceSink trace;

  OutlierSavingOptions opts;
  opts.constraint = {1.5, 5};
  opts.use_exact = true;
  opts.save.budget.max_visited_sets = 2000000;
  opts.explain = &sink;
  opts.trace = &trace;
  SavedDataset saved = SaveOutliers(data, evaluator, opts);
  ASSERT_TRUE(saved.status.ok()) << saved.status.ToString();

  // The exact saves join their span trees on the same trace id as the DISC
  // path: a save_outlier root, a search child under it, and the search's
  // index_query phase under that.
  const std::vector<TraceSpan> spans = trace.Take();
  auto find = [&spans](const char* name, std::uint64_t trace_id,
                       std::uint64_t parent_id) -> const TraceSpan* {
    for (const TraceSpan& span : spans) {
      if (span.name == name && span.trace_id == trace_id &&
          span.parent_id == parent_id) {
        return &span;
      }
    }
    return nullptr;
  };

  std::vector<ExplainSearchLog> logs = sink.Take();
  ASSERT_FALSE(logs.empty());
  EXPECT_EQ(logs.size(), saved.records.size());
  bool feasible_seen = false;
  for (const ExplainSearchLog& log : logs) {
    EXPECT_EQ(log.algo, "exact");
    ExpectLogIdentities(log);
    ASSERT_NE(log.trace_id, 0u) << "ordinal " << log.ordinal;
    EXPECT_EQ(saved.records[log.ordinal].trace_id, log.trace_id);
    const TraceSpan* root = find("save_outlier", log.trace_id, 0);
    ASSERT_NE(root, nullptr) << "ordinal " << log.ordinal;
    EXPECT_EQ(root->span_id,
              DeriveSpanId(log.trace_id, TraceSpanKind::kRoot, 0));
    const TraceSpan* search = find("search", log.trace_id, root->span_id);
    ASSERT_NE(search, nullptr) << "ordinal " << log.ordinal;
    EXPECT_NE(find("index_query", log.trace_id, search->span_id), nullptr)
        << "ordinal " << log.ordinal;
    // The exact enumeration narrates only incumbent adoptions and budget
    // stops — never bound prunes or memo hits.
    for (const ExplainEvent& event : log.events) {
      EXPECT_TRUE(event.action == ExplainAction::kIncumbentUpdate ||
                  event.action == ExplainAction::kPruneBudget)
          << ExplainActionName(event.action);
    }
    if (!log.feasible) continue;
    feasible_seen = true;
    ASSERT_TRUE(std::isfinite(log.final_cost));
    // The incumbent trail is monotone non-increasing and ends at the cost.
    double last = kInf;
    for (const ExplainEvent& event : log.events) {
      if (event.action != ExplainAction::kIncumbentUpdate) continue;
      EXPECT_LE(event.incumbent, last);
      last = event.incumbent;
    }
    EXPECT_DOUBLE_EQ(last, log.final_cost);
  }
  EXPECT_TRUE(feasible_seen);
}

TEST(ExplainEndToEnd, DominatedPrunesExtendEarlierCutsOnG8ShapedData) {
  // g8 shape: six Gaussian centres in [0, 50]^8 (σ = 1), every 10th row
  // shifted by ±6–20 on 1–3 attributes, ε = 4, η = 6. Every prune_dominated
  // X must contain the X of an earlier prune_lb / infeasible event of the
  // same search, and its own lower bound must reach the incumbent it was
  // skipped against — the scan it saved would have cut it too.
  constexpr std::size_t kDims = 8;
  Rng rng(812);
  std::vector<std::vector<double>> centres(6, std::vector<double>(kDims));
  for (std::vector<double>& centre : centres) {
    for (double& v : centre) v = rng.Uniform(0, 50);
  }
  Relation data(Schema::Numeric(kDims));
  for (std::size_t i = 0; i < 600; ++i) {
    Tuple t(kDims);
    for (std::size_t a = 0; a < kDims; ++a) {
      t[a] = Value(rng.Gaussian(centres[i % 6][a], 1.0));
    }
    if (i % 10 == 5) {
      const std::int64_t shifted = rng.UniformInt(1, 3);
      for (std::int64_t k = 0; k < shifted; ++k) {
        const auto a = static_cast<std::size_t>(rng.UniformInt(0, kDims - 1));
        const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
        t[a] = Value(t[a].num() + sign * rng.Uniform(6, 20));
      }
    }
    data.AppendUnchecked(std::move(t));
  }
  DistanceEvaluator evaluator(data.schema());
  const DistanceConstraint constraint{4.0, 6};
  auto index = MakeNeighborIndex(data, evaluator, constraint.epsilon);
  const InlierOutlierSplit split =
      SplitInliersOutliers(data, *index, constraint);
  const Relation inliers = data.Select(split.inlier_rows);
  std::vector<Tuple> outliers;
  for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);
  ASSERT_GT(outliers.size(), 20u);

  DiscSaver saver(inliers, evaluator, constraint);
  CaptureExplainSink sink;
  saver.SaveAll(outliers, {}, nullptr, {}, nullptr, {}, &sink);
  const std::vector<ExplainSearchLog> logs = sink.Take();
  ASSERT_EQ(logs.size(), outliers.size());
  std::size_t dominated = 0;
  for (const ExplainSearchLog& log : logs) {
    ExpectLogIdentities(log);
    std::vector<std::uint64_t> cut;
    for (const ExplainEvent& event : log.events) {
      if (event.action == ExplainAction::kPruneLb ||
          event.action == ExplainAction::kInfeasible) {
        cut.push_back(event.x_bits);
      }
      if (event.action != ExplainAction::kPruneDominated) continue;
      ++dominated;
      EXPECT_TRUE(std::any_of(cut.begin(), cut.end(), [&](std::uint64_t s) {
        return (s & ~event.x_bits) == 0;
      })) << "ordinal " << log.ordinal << " X=" << event.x_bits;
      EXPECT_GE(saver.bounds().LowerBoundForX(outliers[log.ordinal],
                                              AttributeSet(event.x_bits)),
                event.incumbent)
          << "ordinal " << log.ordinal << " X=" << event.x_bits;
    }
  }
  EXPECT_GT(dominated, 0u);
}

}  // namespace
}  // namespace disc
