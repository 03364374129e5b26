// FaultInjector semantics: spec parsing, trigger forms (nth / every /
// schedule), fault kinds, the max_fires cap under concurrent hits, the
// global attach/detach contract, and the zero-overhead no-op path when
// detached.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/status.h"

namespace disc {
namespace {

TEST(ParseFaultSpecs, FullGrammarRoundTrips) {
  Result<std::vector<FaultSpec>> parsed = ParseFaultSpecs(
      "search.node:cancel:nth=100;"
      "dcache.fill:latency:ms=5,every=10;"
      "journal.append:kill:at=3+9+12,max=2;"
      "index.query:error:code=io_error;"
      "pool.task:alloc");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<FaultSpec>& specs = parsed.value();
  ASSERT_EQ(specs.size(), 5u);

  EXPECT_EQ(specs[0].site, "search.node");
  EXPECT_EQ(specs[0].kind, FaultKind::kCancel);
  EXPECT_EQ(specs[0].nth, 100u);

  EXPECT_EQ(specs[1].kind, FaultKind::kLatency);
  EXPECT_EQ(specs[1].latency_ms, 5u);
  EXPECT_EQ(specs[1].every, 10u);

  EXPECT_EQ(specs[2].kind, FaultKind::kKill);
  EXPECT_EQ(specs[2].schedule, (std::vector<std::uint64_t>{3, 9, 12}));
  EXPECT_EQ(specs[2].max_fires, 2u);

  EXPECT_EQ(specs[3].kind, FaultKind::kError);
  EXPECT_EQ(specs[3].code, StatusCode::kIoError);

  EXPECT_EQ(specs[4].kind, FaultKind::kAllocFail);
}

TEST(ParseFaultSpecs, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFaultSpecs("justasite").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:unknownkind").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:nokeyvalue").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:bogus=1").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:nth=abc").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:p=1.5").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:code=nope").ok());
  EXPECT_FALSE(ParseFaultSpecs(":error").ok());
  // Empty input arms nothing but is not an error (disabled == default).
  Result<std::vector<FaultSpec>> empty = ParseFaultSpecs("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(FaultInjector, NthTriggerFiresExactlyOnce) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 2;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_TRUE(site->Hit().ok());   // hit 0
  EXPECT_TRUE(site->Hit().ok());   // hit 1
  EXPECT_FALSE(site->Hit().ok());  // hit 2 fires
  EXPECT_TRUE(site->Hit().ok());   // hit 3
  EXPECT_EQ(site->hits(), 4u);
  EXPECT_EQ(site->fires(), 1u);
  EXPECT_EQ(injector.total_fires(), 1u);
}

TEST(FaultInjector, EveryTriggerIsPeriodicFromNth) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 1;
  spec.every = 3;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(!site->Hit().ok());
  // Hits 1, 4, 7 fire.
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true, false,
                                      false, true}));
}

TEST(FaultInjector, ScheduleTriggerFiresAtListedHits) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.schedule = {0, 3};
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_FALSE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
  EXPECT_FALSE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
}

TEST(FaultInjector, ErrorKindCarriesConfiguredCode) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kIoError;
  injector.Add(spec);
  Status status = injector.site("s")->Hit();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
}

TEST(FaultInjector, CancelKindTripsTokenAndMirrors) {
  FaultInjector injector;
  CancellationSource mirror;
  injector.MirrorCancelTo(mirror);
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kCancel;
  injector.Add(spec);
  CancellationToken token = injector.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(injector.site("s")->Hit().ok());  // cancel returns OK
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(injector.cancel_fired());
  EXPECT_TRUE(mirror.cancel_requested());
}

TEST(FaultInjector, KillKindThrowsFaultInjectedError) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kKill;
  injector.Add(spec);
  EXPECT_THROW(injector.site("s")->Hit(), FaultInjectedError);
}

TEST(FaultInjector, MaxFiresCapsConcurrentHitsExactly) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 0;
  spec.every = 1;  // would fire on every hit...
  spec.max_fires = 10;  // ...but is capped
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (!site->Hit().ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 10u);
  EXPECT_EQ(site->hits(), 4000u);
  EXPECT_EQ(site->fires(), 10u);
}

TEST(FaultInjector, GlobalAttachDetachAndMacro) {
  EXPECT_EQ(GlobalFaultInjector(), nullptr);
  EXPECT_EQ(FaultSiteFor("anything"), nullptr);
  EXPECT_TRUE(DISC_FAULT_POINT("anything").ok());  // detached → no-op

  FaultInjector injector;
  FaultSpec spec;
  spec.site = "macro.site";
  spec.kind = FaultKind::kError;
  injector.Add(spec);
  AttachGlobalFaultInjector(&injector);
  EXPECT_EQ(GlobalFaultInjector(), &injector);
  EXPECT_NE(FaultSiteFor("macro.site"), nullptr);
  EXPECT_FALSE(DISC_FAULT_POINT("macro.site").ok());
  AttachGlobalFaultInjector(nullptr);
  EXPECT_TRUE(DISC_FAULT_POINT("macro.site").ok());
  EXPECT_EQ(injector.hit_count("macro.site"), 1u);
}

TEST(FaultInjector, FiresBumpTheMetricsCounter) {
  MetricsRegistry metrics;
  AttachGlobalMetrics(&metrics);
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 1;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_TRUE(site->Hit().ok());   // no fire, no count
  EXPECT_FALSE(site->Hit().ok());  // fire
  AttachGlobalMetrics(nullptr);
  Counter* c = metrics.GetCounter("disc_fault_injected_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 1u);
}

TEST(FaultInjector, SitePointersAreStableAndUnarmedSitesAreFree) {
  FaultInjector injector;
  FaultInjector::Site* a = injector.site("a");
  EXPECT_EQ(injector.site("a"), a);
  // An unarmed site records hits but never fires.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(a->Hit().ok());
  EXPECT_EQ(a->hits(), 100u);
  EXPECT_EQ(a->fires(), 0u);
}

TEST(FaultInjector, AddFromStringArmsMultipleSites) {
  FaultInjector injector;
  ASSERT_TRUE(injector.AddFromString("a:error:nth=0;b:error:nth=0").ok());
  EXPECT_FALSE(injector.site("a")->Hit().ok());
  EXPECT_FALSE(injector.site("b")->Hit().ok());
  EXPECT_FALSE(injector.AddFromString("bad spec").ok());
}

}  // namespace
}  // namespace disc
