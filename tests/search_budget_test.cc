// Unit tests for the deadline/cancellation/budget primitives: Deadline,
// CancellationToken/Source, SearchStats + StatsNeighborIndex, and the
// BudgetGauge that enforces a SearchBudget inside the savers.

#include "core/search_budget.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/status.h"
#include "core/search_stats.h"
#include "index/brute_force_index.h"

namespace disc {
namespace {

// --- Deadline ---

TEST(Deadline, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d, Deadline::Infinite());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::max());
}

TEST(Deadline, AfterMillisExpires) {
  Deadline d = Deadline::AfterMillis(1);
  EXPECT_FALSE(d.is_infinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining(), Deadline::Clock::duration::zero());
}

TEST(Deadline, NonPositiveDurationAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(std::chrono::milliseconds(0)).expired());
  EXPECT_TRUE(Deadline::AfterMillis(-5).expired());
}

TEST(Deadline, FutureDeadlineNotExpired) {
  Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), std::chrono::seconds(50));
}

TEST(Deadline, MinPicksEarlier) {
  Deadline early = Deadline::AfterMillis(10);
  Deadline late = Deadline::AfterMillis(60'000);
  EXPECT_EQ(Deadline::Min(early, late), early);
  EXPECT_EQ(Deadline::Min(late, early), early);
  EXPECT_EQ(Deadline::Min(early, Deadline::Infinite()), early);
  EXPECT_TRUE(
      Deadline::Min(Deadline::Infinite(), Deadline::Infinite()).is_infinite());
}

// --- Cancellation ---

TEST(Cancellation, DefaultTokenNeverCancelled) {
  CancellationToken token;
  EXPECT_FALSE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, TokenObservesSource) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.can_be_cancelled());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(source.cancel_requested());
  source.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

TEST(Cancellation, CopiedTokensShareTheFlag) {
  CancellationSource source;
  CancellationToken a = source.token();
  CancellationToken b = a;  // copy
  source.RequestCancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(Cancellation, TokenOutlivesSource) {
  CancellationToken token;
  {
    CancellationSource source;
    token = source.token();
    source.RequestCancel();
  }  // source destroyed; the shared flag survives via the token
  EXPECT_TRUE(token.cancelled());
}

TEST(Cancellation, CancelFromAnotherThreadIsObserved) {
  CancellationSource source;
  CancellationToken token = source.token();
  std::thread canceller([&source] { source.RequestCancel(); });
  canceller.join();
  EXPECT_TRUE(token.cancelled());
}

// --- StatsNeighborIndex ---

TEST(StatsNeighborIndex, CountsEveryQueryKind) {
  Relation rel(Schema::Numeric(2));
  rel.AppendUnchecked(Tuple::Numeric({0, 0}));
  rel.AppendUnchecked(Tuple::Numeric({1, 0}));
  rel.AppendUnchecked(Tuple::Numeric({0, 1}));
  DistanceEvaluator ev(rel.schema());
  BruteForceIndex base(rel, ev);

  SearchStats stats;
  StatsNeighborIndex counted(base, &stats);
  EXPECT_EQ(counted.size(), base.size());
  EXPECT_EQ(stats.index_queries, 0u);  // size() is not a query

  Tuple q = Tuple::Numeric({0.1, 0.1});
  std::vector<Neighbor> range = counted.RangeQuery(q, 2.0);
  EXPECT_EQ(stats.index_queries, 1u);
  EXPECT_EQ(stats.index_range_queries, 1u);
  EXPECT_EQ(range.size(), base.RangeQuery(q, 2.0).size());

  std::size_t within = counted.CountWithin(q, 2.0, 0);
  EXPECT_EQ(stats.index_queries, 2u);
  EXPECT_EQ(stats.index_count_queries, 1u);
  EXPECT_EQ(within, base.CountWithin(q, 2.0, 0));

  std::vector<Neighbor> knn = counted.KNearest(q, 2);
  EXPECT_EQ(stats.index_queries, 3u);
  EXPECT_EQ(stats.index_knn_queries, 1u);
  ASSERT_EQ(knn.size(), 2u);
}

// --- SaveTermination helpers ---

TEST(SaveTermination, NamesAreStable) {
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kCompleted), "completed");
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kVisitBudget),
               "visit_budget");
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kQueryBudget),
               "query_budget");
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kDeadline), "deadline");
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kCancelled), "cancelled");
  EXPECT_STREQ(SaveTerminationName(SaveTermination::kInfeasible),
               "infeasible");
}

// --- BudgetGauge ---

TEST(BudgetGauge, UnlimitedBudgetNeverStops) {
  SearchBudget budget;
  BudgetGauge gauge(&budget);
  for (std::size_t i = 1; i <= 1000; ++i) {
    EXPECT_TRUE(gauge.OnNodeExpanded(i));
    EXPECT_TRUE(gauge.KeepScanning());
  }
  EXPECT_TRUE(gauge.ContinueRefinement());
  EXPECT_FALSE(gauge.stopped());
  EXPECT_EQ(gauge.reason(), SaveTermination::kCompleted);
  EXPECT_EQ(gauge.nodes_expanded(), 1000u);
}

TEST(BudgetGauge, VisitBudgetTripsStrictlyAbove) {
  SearchBudget budget;
  budget.max_visited_sets = 3;
  BudgetGauge gauge(&budget);
  EXPECT_TRUE(gauge.OnNodeExpanded(1));
  EXPECT_TRUE(gauge.OnNodeExpanded(2));
  EXPECT_TRUE(gauge.OnNodeExpanded(3));  // == cap still allowed
  EXPECT_FALSE(gauge.OnNodeExpanded(4));
  EXPECT_TRUE(gauge.stopped());
  EXPECT_EQ(gauge.reason(), SaveTermination::kVisitBudget);
  // Refinement may still run after a soft stop.
  EXPECT_TRUE(gauge.ContinueRefinement());
}

TEST(BudgetGauge, QueryBudgetTrips) {
  SearchBudget budget;
  budget.max_index_queries = 2;
  BudgetGauge gauge(&budget);
  gauge.stats().index_queries += 3;
  EXPECT_EQ(gauge.stats().index_queries, 3u);
  EXPECT_FALSE(gauge.OnNodeExpanded(1));
  EXPECT_EQ(gauge.reason(), SaveTermination::kQueryBudget);
  EXPECT_TRUE(gauge.ContinueRefinement());  // soft stop
}

TEST(BudgetGauge, ExpiredDeadlineStopsEverything) {
  SearchBudget budget;
  BudgetGauge gauge(&budget, Deadline::AfterMillis(-1));
  EXPECT_FALSE(gauge.OnNodeExpanded(1));
  EXPECT_EQ(gauge.reason(), SaveTermination::kDeadline);
  EXPECT_FALSE(gauge.ContinueRefinement());  // hard stop
}

TEST(BudgetGauge, CancellationWinsOverOtherLimits) {
  CancellationSource source;
  SearchBudget budget;
  budget.max_visited_sets = 1;
  source.RequestCancel();
  BudgetGauge gauge(&budget, Deadline::Infinite(), source.token());
  EXPECT_FALSE(gauge.OnNodeExpanded(5));  // would also trip the visit cap
  EXPECT_EQ(gauge.reason(), SaveTermination::kCancelled);
  EXPECT_FALSE(gauge.ContinueRefinement());
}

TEST(BudgetGauge, TokenCancelledMidSearchObserved) {
  CancellationSource source;
  SearchBudget budget;  // the work caps themselves are unlimited
  BudgetGauge gauge(&budget, Deadline::Infinite(), source.token());
  EXPECT_TRUE(gauge.OnNodeExpanded(1));
  source.RequestCancel();
  EXPECT_FALSE(gauge.OnNodeExpanded(2));
  EXPECT_EQ(gauge.reason(), SaveTermination::kCancelled);
}

TEST(BudgetGauge, KeepScanningDetectsCancellationWithinStride) {
  CancellationSource source;
  SearchBudget budget;
  BudgetGauge gauge(&budget, Deadline::Infinite(), source.token());
  source.RequestCancel();
  // The poll is strided: the stop must land within one stride (64 rows).
  bool stopped = false;
  for (int i = 0; i < 64 && !stopped; ++i) stopped = !gauge.KeepScanning();
  EXPECT_TRUE(stopped);
  EXPECT_EQ(gauge.reason(), SaveTermination::kCancelled);
  EXPECT_FALSE(gauge.KeepScanning());  // latched
}

TEST(BudgetGauge, FirstStopReasonIsSticky) {
  SearchBudget budget;
  budget.max_visited_sets = 1;
  BudgetGauge gauge(&budget, Deadline::AfterMillis(60'000));
  EXPECT_FALSE(gauge.OnNodeExpanded(2));
  EXPECT_EQ(gauge.reason(), SaveTermination::kVisitBudget);
  // Later checks must not overwrite the recorded reason.
  EXPECT_FALSE(gauge.OnNodeExpanded(3));
  EXPECT_EQ(gauge.reason(), SaveTermination::kVisitBudget);
}

TEST(BudgetGauge, CancelFaultAtNthNodeStopsTheSearch) {
  // The injected-cancel equivalent of the old per-node hook: a kCancel
  // fault at the 2nd `search.node` hit trips the injector's cancellation
  // source, which the gauge observes via its token on the same call (the
  // fault site is hit before the cancellation check).
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "search.node";
  spec.kind = FaultKind::kCancel;
  spec.nth = 2;
  injector.Add(spec);
  AttachGlobalFaultInjector(&injector);
  SearchBudget budget;
  BudgetGauge gauge(&budget, Deadline::Infinite(), injector.token());
  EXPECT_TRUE(gauge.OnNodeExpanded(1));   // hit 0
  EXPECT_TRUE(gauge.OnNodeExpanded(2));   // hit 1
  EXPECT_FALSE(gauge.OnNodeExpanded(3));  // hit 2: cancel fires, then check
  AttachGlobalFaultInjector(nullptr);
  EXPECT_EQ(gauge.reason(), SaveTermination::kCancelled);
  EXPECT_TRUE(injector.cancel_fired());
  EXPECT_EQ(injector.hit_count("search.node"), 3u);
  EXPECT_EQ(injector.fires("search.node"), 1u);
}

TEST(BudgetGauge, ErrorFaultAtNodeStopsWithFaultReason) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "search.node";
  spec.kind = FaultKind::kError;
  spec.nth = 1;
  injector.Add(spec);
  AttachGlobalFaultInjector(&injector);
  BudgetGauge gauge(nullptr);  // even an unlimited budget honors faults
  EXPECT_TRUE(gauge.OnNodeExpanded(1));
  EXPECT_FALSE(gauge.OnNodeExpanded(2));
  AttachGlobalFaultInjector(nullptr);
  EXPECT_EQ(gauge.reason(), SaveTermination::kFault);
}

TEST(BudgetGauge, NullBudgetIsUnlimited) {
  BudgetGauge gauge(nullptr);
  EXPECT_TRUE(gauge.OnNodeExpanded(1'000'000));
  EXPECT_TRUE(gauge.KeepScanning());
  EXPECT_FALSE(gauge.stopped());
}

}  // namespace
}  // namespace disc
