// Unit tests for the hierarchical tracing primitives (DESIGN.md §13):
// deterministic id derivation, the PhaseScope pause/resume discipline on a
// SearchObserver, PerWorkerBuffer drain ordering, the WallPhaseProfiler
// accumulators, and the RecentRing / TraceRecorder behind /tracez. The
// span-set parity of a full pipeline run lives in trace_determinism_test.cc.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/buffers.h"
#include "common/trace.h"
#include "core/observation.h"

namespace disc {
namespace {

TEST(TraceIds, DerivationIsDeterministicAndCollisionFree) {
  SetTraceBatchCounterForTest(42);
  const std::uint64_t seed_a = NextTraceBatchSeed();
  SetTraceBatchCounterForTest(42);
  const std::uint64_t seed_b = NextTraceBatchSeed();
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_NE(seed_a, NextTraceBatchSeed());  // counter advanced

  EXPECT_EQ(DeriveTraceId(seed_a, 3), DeriveTraceId(seed_a, 3));
  EXPECT_NE(DeriveTraceId(seed_a, 3), DeriveTraceId(seed_a, 4));

  // Distinct positions in the tree — different kind or ordinal or parent —
  // must yield distinct span ids (splitmix over structural inputs).
  const std::uint64_t trace = DeriveTraceId(seed_a, 0);
  std::set<std::uint64_t> ids;
  for (TraceSpanKind kind :
       {TraceSpanKind::kRoot, TraceSpanKind::kSearch, TraceSpanKind::kPhase,
        TraceSpanKind::kEstimate}) {
    for (std::uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
      ids.insert(DeriveSpanId(trace, kind, ordinal));
    }
  }
  EXPECT_EQ(ids.size(), 4u * 8u);
  // The kind values are part of the id contract; kEstimate keeps 6.
  EXPECT_EQ(static_cast<std::uint64_t>(TraceSpanKind::kEstimate), 6u);
  EXPECT_EQ(DeriveSpanId(trace, TraceSpanKind::kSearch, 1),
            DeriveSpanId(trace, TraceSpanKind::kSearch, 1));
}

TEST(TraceIds, MixIsDeterministic) {
  EXPECT_EQ(TraceMix(7, 9), TraceMix(7, 9));
  EXPECT_NE(TraceMix(7, 9), TraceMix(9, 7));
}

/// Spins until the steady clock advanced by at least `ns`.
void SpinFor(std::uint64_t ns) {
  const std::uint64_t until = TraceNowNs() + ns;
  while (TraceNowNs() < until) {
  }
}

/// Orders spans the way the batch drain does: by (trace_id, span_id).
bool SpanLess(const TraceSpan& a, const TraceSpan& b) {
  if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
  return a.span_id < b.span_id;
}

TEST(PhaseScopeTest, NestedScopePausesTheOuterPhase) {
  PerWorkerBuffer<TraceSpan> collector(1);
  WallPhaseProfiler profiler;
  SearchObserver trace;
  trace.spans = &collector;
  trace.profiler = &profiler;
  trace.trace_id = DeriveTraceId(1, 0);
  trace.search_span_id = DeriveSpanId(
      DeriveSpanId(trace.trace_id, TraceSpanKind::kRoot, 0),
      TraceSpanKind::kSearch, 0);
  ASSERT_TRUE(trace.timed());

  const std::uint64_t start = TraceNowNs();
  {
    PhaseScope outer(&trace, TracePhase::kBoundsScan);
    SpinFor(200'000);
    {
      PhaseScope inner(&trace, TracePhase::kIndexQuery);
      SpinFor(200'000);
    }
    SpinFor(200'000);
  }
  const std::uint64_t elapsed = TraceNowNs() - start;

  const auto& bounds =
      trace.phases[static_cast<std::size_t>(TracePhase::kBoundsScan)];
  const auto& index =
      trace.phases[static_cast<std::size_t>(TracePhase::kIndexQuery)];
  EXPECT_EQ(bounds.count, 1u);
  EXPECT_EQ(index.count, 1u);
  EXPECT_GE(index.ns, 200'000u);
  EXPECT_GE(bounds.ns, 400'000u);
  // Exclusive accounting: the inner phase's time is *not* also charged to
  // the outer one, so the per-phase total stays <= the real elapsed wall.
  EXPECT_LE(bounds.ns + index.ns, elapsed);

  trace.FlushPhases();
  std::vector<TraceSpan> spans = collector.Drain(SpanLess);
  ASSERT_EQ(spans.size(), 2u);
  for (const TraceSpan& span : spans) {
    EXPECT_EQ(span.trace_id, trace.trace_id);
    EXPECT_EQ(span.parent_id, trace.search_span_id);
    const TracePhase phase = span.name == "index_query"
                                 ? TracePhase::kIndexQuery
                                 : TracePhase::kBoundsScan;
    EXPECT_EQ(span.span_id, trace.PhaseSpanId(phase)) << span.name;
  }

  // The same totals were folded into the profiler at flush.
  const auto snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kBoundsScan)].ns,
            bounds.ns);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].count,
            1u);
}

TEST(PhaseScopeTest, DetachedTraceIsANoOp) {
  SearchObserver trace;  // no span buffer, no profiler
  trace.capture = true;  // decision capture alone reads no clock
  EXPECT_FALSE(trace.timed());
  {
    PhaseScope scope(&trace, TracePhase::kVerdict);
    PhaseScope null_scope(nullptr, TracePhase::kVerdict);
  }
  for (const auto& acc : trace.phases) {
    EXPECT_EQ(acc.ns, 0u);
    EXPECT_EQ(acc.count, 0u);
  }
}

TEST(PerWorkerBufferTest, DrainSortsByTraceThenSpanIdAndEmpties) {
  PerWorkerBuffer<TraceSpan> collector(3);
  auto make = [](std::uint64_t trace_id, std::uint64_t span_id) {
    TraceSpan span;
    span.name = "search";
    span.trace_id = trace_id;
    span.span_id = span_id;
    return span;
  };
  collector.Record(2, make(2, 1));
  collector.Record(0, make(1, 9));
  collector.Record(1, make(1, 3));
  collector.Record(0, make(2, 0));
  collector.Record(99, make(0, 5));  // out-of-range slot clamps to the last
  // The calling thread is no pool worker: its own slot is the last one.
  collector.Record(make(3, 0));

  std::vector<TraceSpan> spans = collector.Drain(SpanLess);
  ASSERT_EQ(spans.size(), 6u);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
  for (const TraceSpan& span : spans) {
    order.emplace_back(span.trace_id, span.span_id);
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {0, 5}, {1, 3}, {1, 9}, {2, 0}, {2, 1}, {3, 0}};
  EXPECT_EQ(order, want);
  EXPECT_TRUE(collector.Drain(SpanLess).empty());
}

TEST(PerWorkerBufferTest, SlotForWorkerMapsWorkersAndCallers) {
  EXPECT_EQ(SlotForWorker(-1, 4), 3u);  // non-worker -> caller slot
  EXPECT_EQ(SlotForWorker(0, 4), 0u);
  EXPECT_EQ(SlotForWorker(2, 4), 2u);
  EXPECT_EQ(SlotForWorker(3, 4), 3u);  // out-of-range worker -> caller
  EXPECT_EQ(SlotForWorker(-1, 1), 0u);
}

TEST(RecentRingTest, KeepsTheNewestOldestFirst) {
  RecentRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  auto contents = [&ring] {
    std::vector<int> out;
    ring.ForEach([&out](int v) { out.push_back(v); });
    return out;
  };
  EXPECT_TRUE(contents().empty());
  ring.Push(1);
  ring.Push(2);
  EXPECT_EQ(contents(), (std::vector<int>{1, 2}));  // below capacity
  for (int v = 3; v <= 7; ++v) ring.Push(v);
  EXPECT_EQ(contents().size(), 3u);
  EXPECT_EQ(contents(), (std::vector<int>{5, 6, 7}));  // wrapped twice
  ring.Clear();
  EXPECT_TRUE(contents().empty());
  ring.Push(8);
  EXPECT_EQ(contents(), (std::vector<int>{8}));
  EXPECT_EQ(RecentRing<int>(0).capacity(), 1u);  // never zero-sized
}

TEST(WallPhaseProfilerTest, ResetIsLosslessAndJsonCarriesFoldedStacks) {
  WallPhaseProfiler profiler;
  profiler.Add(TracePhase::kIndexQuery, 100);
  profiler.Add(TracePhase::kIndexQuery, 50);
  profiler.Add(TracePhase::kStealIdle, 7);

  auto snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].ns, 150u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].count,
            2u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kStealIdle)].ns, 7u);

  profiler.Reset();
  snap = profiler.Snapshot();
  for (const auto& total : snap) {
    EXPECT_EQ(total.ns, 0u);
    EXPECT_EQ(total.count, 0u);
  }
  // Activity after the reset is reported in full — nothing was dropped.
  profiler.Add(TracePhase::kVerdict, 33);
  snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kVerdict)].ns, 33u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kVerdict)].count, 1u);

  const std::string json = profiler.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"verdict\":{\"wall_ns\":33,\"count\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"disc_save;verdict 33\""), std::string::npos) << json;
  // steal_idle folds under the pool root, not the save pipeline.
  profiler.Add(TracePhase::kStealIdle, 5);
  EXPECT_NE(profiler.ToJson().find("\"disc_pool;steal_idle 5\""),
            std::string::npos);
}

TraceSpan FinishedSpan(const char* name, std::uint64_t trace_id,
                       std::uint64_t dur_ns) {
  TraceSpan span;
  span.name = name;
  span.trace_id = trace_id;
  span.span_id = DeriveSpanId(trace_id, TraceSpanKind::kRoot, 0);
  span.start_ns = TraceNowNs();
  span.duration_ns = dur_ns;
  return span;
}

TEST(TraceRecorderTest, RingKeepsNewestAndAppliesSlowThreshold) {
  TraceRecorder recorder(/*recent_capacity=*/2, /*slow_threshold_ns=*/1000);
  recorder.RecordFinished(FinishedSpan("search", 111, 500));  // below cutoff
  recorder.RecordFinished(FinishedSpan("search", 222, 2000));
  recorder.RecordFinished(FinishedSpan("search", 333, 3000));
  recorder.RecordFinished(FinishedSpan("search", 444, 4000));

  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"recent_capacity\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_threshold_ns\":1000"), std::string::npos);
  EXPECT_EQ(json.find("\"trace_id\":111"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"trace_id\":222"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":333"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":444"), std::string::npos) << json;
}

TEST(TraceRecorderTest, ActiveSlotsPublishAndRelease) {
  TraceRecorder recorder;
  const int slot = recorder.BeginActive("search", 77, 88, TraceNowNs());
  ASSERT_GE(slot, 0);
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"trace_id\":77"), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_ns\":"), std::string::npos) << json;

  recorder.EndActive(slot);
  json = recorder.ToJson();
  EXPECT_NE(json.find("\"active\":[]"), std::string::npos) << json;
}

TEST(TraceRecorderTest, ActiveTableExhaustionIsBestEffort) {
  TraceRecorder recorder;
  std::vector<int> slots;
  for (int i = 0; i < 64; ++i) {
    const int slot = recorder.BeginActive("search", 1, i + 1, TraceNowNs());
    ASSERT_GE(slot, 0) << "slot " << i;
    slots.push_back(slot);
  }
  // All 64 slots busy: the 65th search goes unlisted instead of blocking.
  EXPECT_EQ(recorder.BeginActive("search", 1, 999, TraceNowNs()), -1);
  recorder.EndActive(slots[0]);
  EXPECT_GE(recorder.BeginActive("search", 1, 999, TraceNowNs()), 0);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    recorder.EndActive(slots[i]);
  }
}

TEST(GlobalHooks, AttachDetachRoundTrip) {
  EXPECT_EQ(GlobalTraceRecorder(), nullptr);
  EXPECT_EQ(GlobalWallProfiler(), nullptr);
  TraceRecorder recorder;
  WallPhaseProfiler profiler;
  AttachGlobalTraceRecorder(&recorder);
  AttachGlobalWallProfiler(&profiler);
  EXPECT_EQ(GlobalTraceRecorder(), &recorder);
  EXPECT_EQ(GlobalWallProfiler(), &profiler);
  AttachGlobalTraceRecorder(nullptr);
  AttachGlobalWallProfiler(nullptr);
  EXPECT_EQ(GlobalTraceRecorder(), nullptr);
  EXPECT_EQ(GlobalWallProfiler(), nullptr);
}

}  // namespace
}  // namespace disc
