// SaveJournal durability contract: hexfloat bit-exact round trips, torn-line
// tolerance, last-wins ordinal dedup, batch-identity validation — and the
// headline guarantee of DESIGN.md §11: a batch crashed mid-save and resumed
// from its journal produces output bit-identical to an uninterrupted run,
// for every thread count.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/save_journal.h"
#include "data/generators.h"
#include "index/index_factory.h"

namespace disc {
namespace {

SaveJournalHeader TestHeader() {
  SaveJournalHeader header;
  header.n_outliers = 5;
  header.arity = 3;
  header.epsilon = 0.1;  // not representable in binary — hexfloat must hold it
  header.eta = 4;
  header.kappa = 2;
  return header;
}

/// A result exercising every serialized field with awkward doubles:
/// non-representable fractions, negative zero, a subnormal, and a value
/// needing all 53 mantissa bits.
SaveResult AwkwardResult() {
  SaveResult r;
  r.feasible = true;
  r.termination = SaveTermination::kCompleted;
  r.adjusted = Tuple({Value(1.0 / 3.0), Value(-0.0), Value("north east")});
  r.cost = 0.1 + 0.2;  // 0x1.3333333333334p-2: the classic rounding victim
  r.lower_bound = std::numeric_limits<double>::denorm_min();
  r.adjusted_attributes = AttributeSet(0b101);
  r.kappa_exceeded = false;
  r.stats.nodes_expanded = 1;
  r.stats.visited_sets = 7;
  r.stats.lb_prunes = 3;
  r.stats.prop3_bounds = 4;
  r.stats.prop5_bounds = 5;
  r.stats.feasibility_checks = 6;
  r.stats.dcache_hits = 8;
  r.stats.dcache_misses = 9;
  r.stats.index_range_queries = 10;
  r.stats.index_count_queries = 11;
  r.stats.index_knn_queries = 12;
  r.stats.index_queries = 41;
  r.stats.wall_nanos = 123456789;
  r.stats.start_ns = 42;
  return r;
}

/// Bit-level double equality (distinguishes -0.0 from 0.0).
bool SameBits(double a, double b) {
  return a == b && std::signbit(a) == std::signbit(b);
}

void ExpectSameResult(const SaveResult& a, const SaveResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.termination, b.termination);
  ASSERT_EQ(a.adjusted.size(), b.adjusted.size());
  for (std::size_t i = 0; i < a.adjusted.size(); ++i) {
    ASSERT_EQ(a.adjusted[i].is_numeric(), b.adjusted[i].is_numeric()) << i;
    if (a.adjusted[i].is_numeric()) {
      EXPECT_TRUE(SameBits(a.adjusted[i].num(), b.adjusted[i].num())) << i;
    } else {
      EXPECT_EQ(a.adjusted[i].str(), b.adjusted[i].str()) << i;
    }
  }
  EXPECT_TRUE(SameBits(a.cost, b.cost));
  EXPECT_TRUE(SameBits(a.lower_bound, b.lower_bound));
  EXPECT_EQ(a.adjusted_attributes.bits(), b.adjusted_attributes.bits());
  EXPECT_EQ(a.kappa_exceeded, b.kappa_exceeded);
  EXPECT_TRUE(a.stats.SameWork(b.stats));
  EXPECT_EQ(a.stats.wall_nanos, b.stats.wall_nanos);
  EXPECT_EQ(a.stats.start_ns, b.stats.start_ns);
}

TEST(SaveJournal, RoundTripIsBitExact) {
  const std::string path =
      ::testing::TempDir() + "/disc_journal_roundtrip.jsonl";
  const SaveJournalHeader header = TestHeader();
  SaveResult completed = AwkwardResult();
  SaveResult infeasible;
  infeasible.feasible = false;
  infeasible.termination = SaveTermination::kInfeasible;
  infeasible.adjusted = Tuple({Value(-1.5), Value(0.0), Value("x")});
  infeasible.cost = 0;

  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, header).ok());
  ASSERT_TRUE(writer.Append(3, completed).ok());
  ASSERT_TRUE(writer.Append(0, infeasible).ok());
  writer.Close();

  // The line format keeps `pruned_sets`, written from stats.lb_prunes.
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"pruned_sets\":3,"), std::string::npos) << text;

  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SaveJournal& journal = loaded.value();
  EXPECT_EQ(journal.header.schema_version, 1u);
  EXPECT_EQ(journal.header.n_outliers, header.n_outliers);
  EXPECT_EQ(journal.header.arity, header.arity);
  EXPECT_TRUE(SameBits(journal.header.epsilon, header.epsilon));
  EXPECT_EQ(journal.header.eta, header.eta);
  EXPECT_EQ(journal.header.kappa, header.kappa);

  ASSERT_EQ(journal.entries.size(), 2u);
  // Entries come back ordinal-sorted regardless of append order.
  EXPECT_EQ(journal.entries[0].ordinal, 0u);
  EXPECT_EQ(journal.entries[1].ordinal, 3u);
  ExpectSameResult(journal.entries[0].result, infeasible);
  ExpectSameResult(journal.entries[1].result, completed);
}

TEST(SaveJournal, TornTrailingLineIsIgnored) {
  const std::string path = ::testing::TempDir() + "/disc_journal_torn.jsonl";
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, TestHeader()).ok());
  ASSERT_TRUE(writer.Append(1, AwkwardResult()).ok());
  writer.Close();
  {
    // Simulate a crash mid-append: a final line cut off before its newline.
    std::ofstream torn(path, std::ios::app);
    torn << "{\"kind\":\"entry\",\"ordinal\":2,\"terminat";
  }
  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().entries.size(), 1u);
  EXPECT_EQ(loaded.value().entries[0].ordinal, 1u);
}

TEST(SaveJournal, MalformedMiddleLineIsAnError) {
  const std::string path = ::testing::TempDir() + "/disc_journal_bad.jsonl";
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, TestHeader()).ok());
  writer.Close();
  {
    std::ofstream out(path, std::ios::app);
    out << "not json at all\n";
    out << "{\"kind\":\"header\"}\n";  // keeps the bad line non-final
  }
  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST(SaveJournal, DuplicateOrdinalLastOccurrenceWins) {
  const std::string path = ::testing::TempDir() + "/disc_journal_dup.jsonl";
  SaveResult first = AwkwardResult();
  first.cost = 1.25;
  SaveResult second = AwkwardResult();
  second.cost = 2.5;
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, TestHeader()).ok());
  ASSERT_TRUE(writer.Append(2, first).ok());
  ASSERT_TRUE(writer.Append(2, second).ok());
  writer.Close();
  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().entries.size(), 1u);
  EXPECT_EQ(loaded.value().entries[0].ordinal, 2u);
  EXPECT_TRUE(SameBits(loaded.value().entries[0].result.cost, 2.5));
}

TEST(SaveJournal, MissingFileIsNotFound) {
  Result<SaveJournal> loaded =
      ReadSaveJournal(::testing::TempDir() + "/disc_journal_missing.jsonl");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SaveJournal, MatchesValidatesBatchIdentity) {
  SaveJournal journal;
  journal.header = TestHeader();
  const DistanceConstraint constraint{0.1, 4};

  EXPECT_TRUE(journal.Matches(5, 3, constraint, 2).ok());
  EXPECT_EQ(journal.Matches(6, 3, constraint, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(journal.Matches(5, 4, constraint, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(journal.Matches(5, 3, {0.2, 4}, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(journal.Matches(5, 3, {0.1, 5}, 2).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(journal.Matches(5, 3, constraint, 1).code(),
            StatusCode::kFailedPrecondition);

  SaveJournal future = journal;
  future.header.schema_version = 2;
  EXPECT_EQ(future.Matches(5, 3, constraint, 2).code(),
            StatusCode::kFailedPrecondition);

  SaveJournal out_of_range = journal;
  out_of_range.entries.push_back(SaveJournalEntry{7, AwkwardResult()});
  EXPECT_EQ(out_of_range.Matches(5, 3, constraint, 2).code(),
            StatusCode::kFailedPrecondition);

  SaveJournal degraded = journal;
  SaveJournalEntry truncated{1, AwkwardResult()};
  truncated.result.termination = SaveTermination::kDeadline;
  degraded.entries.push_back(std::move(truncated));
  EXPECT_EQ(degraded.Matches(5, 3, constraint, 2).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SaveJournal, OpenAppendOnMissingFileBehavesLikeOpen) {
  const std::string path =
      ::testing::TempDir() + "/disc_journal_append_fresh.jsonl";
  std::remove(path.c_str());
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.OpenAppend(path, TestHeader()).ok());
  ASSERT_TRUE(writer.is_open());
  writer.Close();
  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().header.n_outliers, 5u);
  EXPECT_TRUE(loaded.value().entries.empty());
}

TEST(SaveJournal, AppendWithoutOpenIsAnError) {
  SaveJournalWriter writer;
  EXPECT_EQ(writer.Append(0, AwkwardResult()).code(),
            StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Crash → resume bit-identity (the tentpole guarantee).

/// Noisy multi-cluster dataset; mirrors the anytime_save_test fixture.
Relation MakeNoisyDataset(std::uint64_t seed) {
  std::vector<ClusterSpec> specs = {
      {{0, 0, 0, 0}, 0.5, 70},
      {{10, 10, 0, 0}, 0.5, 70},
      {{0, 10, 10, 0}, 0.5, 70},
  };
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed);
  Rng rng(seed + 1);
  for (std::size_t row = 3; row < mixture.data.size(); row += 9) {
    std::size_t a = static_cast<std::size_t>(rng.UniformInt(0, 3));
    mixture.data[row][a] =
        Value(mixture.data[row][a].num() + 20.0 + rng.Uniform() * 5.0);
  }
  return std::move(mixture.data);
}

struct BatchFixture {
  Relation data;
  std::unique_ptr<DistanceEvaluator> ev;
  DistanceConstraint constraint{1.6, 5};
  Relation inliers;
  std::vector<Tuple> outliers;
  std::unique_ptr<DiscSaver> saver;
  SaveOptions options;

  explicit BatchFixture(std::uint64_t seed) : data(MakeNoisyDataset(seed)) {
    ev = std::make_unique<DistanceEvaluator>(data.schema());
    std::unique_ptr<NeighborIndex> index =
        MakeNeighborIndex(data, *ev, constraint.epsilon);
    InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
    inliers = data.Select(split.inlier_rows);
    for (std::size_t row : split.outlier_rows) outliers.push_back(data[row]);
    saver = std::make_unique<DiscSaver>(inliers, *ev, constraint);
    options.kappa = 2;
  }

  SaveJournalHeader Header() const {
    SaveJournalHeader header;
    header.n_outliers = outliers.size();
    header.arity = data.arity();
    header.epsilon = constraint.epsilon;
    header.eta = constraint.eta;
    header.kappa = options.kappa;
    return header;
  }
};

void ExpectBitIdenticalBatch(const std::vector<SaveResult>& baseline,
                             const std::vector<SaveResult>& resumed) {
  ASSERT_EQ(baseline.size(), resumed.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    SCOPED_TRACE("outlier " + std::to_string(i));
    EXPECT_EQ(baseline[i].feasible, resumed[i].feasible);
    EXPECT_EQ(baseline[i].termination, resumed[i].termination);
    EXPECT_EQ(baseline[i].adjusted, resumed[i].adjusted);
    EXPECT_TRUE(SameBits(baseline[i].cost, resumed[i].cost));
    EXPECT_TRUE(SameBits(baseline[i].lower_bound, resumed[i].lower_bound));
    EXPECT_EQ(baseline[i].adjusted_attributes.bits(),
              resumed[i].adjusted_attributes.bits());
    EXPECT_EQ(baseline[i].kappa_exceeded, resumed[i].kappa_exceeded);
    // SameWork covers every deterministic counter; timing is the one thing
    // a restored result legitimately reports from the interrupted run.
    EXPECT_TRUE(baseline[i].stats.SameWork(resumed[i].stats));
  }
}

TEST(SaveJournal, CrashThenResumeIsBitIdenticalAcrossThreadCounts) {
  BatchFixture fx(41);
  ASSERT_GT(fx.outliers.size(), 5u);

  // Uninterrupted reference run: no journal, no faults.
  const std::vector<SaveResult> baseline =
      fx.saver->SaveAll(fx.outliers, fx.options);

  for (std::size_t workers : {std::size_t{0}, std::size_t{4}, std::size_t{8}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    std::unique_ptr<WorkStealingPool> pool;
    if (workers > 0) pool = std::make_unique<WorkStealingPool>(workers);

    const std::string path = ::testing::TempDir() + "/disc_journal_resume_" +
                             std::to_string(workers) + ".jsonl";

    // Interrupted run: a cancel fault on the third durable journal append
    // trips the batch cancellation — everything still queued drains and
    // skips, exactly like an operator killing the batch mid-save.
    SaveJournalWriter writer;
    ASSERT_TRUE(writer.Open(path, fx.Header()).ok());
    FaultInjector injector;
    FaultSpec crash;
    crash.site = "journal.append";
    crash.kind = FaultKind::kCancel;
    crash.nth = 2;
    injector.Add(crash);
    AttachGlobalFaultInjector(&injector);
    BatchBudget batch;
    batch.cancellation = injector.token();
    BatchRecovery interrupted;
    interrupted.journal = &writer;
    const std::vector<SaveResult> partial = fx.saver->SaveAll(
        fx.outliers, fx.options, pool.get(), batch, nullptr, interrupted);
    AttachGlobalFaultInjector(nullptr);
    writer.Close();
    ASSERT_TRUE(injector.cancel_fired());
    ASSERT_EQ(partial.size(), fx.outliers.size());

    // The journal holds the definitive results that landed before the
    // crash — at least the three whose appends the fault counted.
    Result<SaveJournal> loaded = ReadSaveJournal(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    SaveJournal journal = std::move(loaded).value();
    ASSERT_GE(journal.entries.size(), 3u);
    ASSERT_LT(journal.entries.size(), fx.outliers.size());
    ASSERT_TRUE(journal
                    .Matches(fx.outliers.size(), fx.data.arity(),
                             fx.constraint, fx.options.kappa)
                    .ok());

    // Resume: journaled ordinals restore verbatim, the rest re-search.
    SaveJournalWriter appender;
    ASSERT_TRUE(appender.OpenAppend(path, fx.Header()).ok());
    BatchRecovery resume;
    resume.journal = &appender;
    resume.resume = &journal;
    const std::vector<SaveResult> resumed = fx.saver->SaveAll(
        fx.outliers, fx.options, pool.get(), {}, nullptr, resume);
    appender.Close();

    ExpectBitIdenticalBatch(baseline, resumed);

    // After the resumed run the journal covers every definitive ordinal, so
    // a second resume restores everything without searching at all.
    Result<SaveJournal> complete = ReadSaveJournal(path);
    ASSERT_TRUE(complete.ok());
    std::size_t definitive = 0;
    for (const SaveResult& r : baseline) {
      if (r.termination == SaveTermination::kCompleted ||
          r.termination == SaveTermination::kInfeasible) {
        ++definitive;
      }
    }
    EXPECT_EQ(complete.value().entries.size(), definitive);
  }
}

TEST(SaveJournal, KillFaultCrashUnwindsAndResumeRecovers) {
  BatchFixture fx(43);
  ASSERT_GT(fx.outliers.size(), 3u);
  const std::vector<SaveResult> baseline =
      fx.saver->SaveAll(fx.outliers, fx.options);

  const std::string path =
      ::testing::TempDir() + "/disc_journal_kill.jsonl";
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, fx.Header()).ok());
  FaultInjector injector;
  FaultSpec kill;
  kill.site = "journal.append";
  kill.kind = FaultKind::kKill;
  kill.nth = 1;
  injector.Add(kill);
  AttachGlobalFaultInjector(&injector);
  BatchRecovery interrupted;
  interrupted.journal = &writer;
  // The kill fires *after* the second entry is durable: the process
  // "crashes" with two committed lines and no in-memory results.
  EXPECT_THROW(fx.saver->SaveAll(fx.outliers, fx.options, nullptr, {},
                                 nullptr, interrupted),
               FaultInjectedError);
  AttachGlobalFaultInjector(nullptr);
  writer.Close();

  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SaveJournal journal = std::move(loaded).value();
  EXPECT_EQ(journal.entries.size(), 2u);

  SaveJournalWriter appender;
  ASSERT_TRUE(appender.OpenAppend(path, fx.Header()).ok());
  BatchRecovery resume;
  resume.journal = &appender;
  resume.resume = &journal;
  const std::vector<SaveResult> resumed = fx.saver->SaveAll(
      fx.outliers, fx.options, nullptr, {}, nullptr, resume);
  appender.Close();
  ExpectBitIdenticalBatch(baseline, resumed);
}

// ---------------------------------------------------------------------------
// Injected faults recover through resume.

TEST(SaveJournal, FaultedSearchIsSearchedAgainOnResume) {
  BatchFixture fx(47);
  ASSERT_GT(fx.outliers.size(), 1u);
  const std::vector<SaveResult> baseline =
      fx.saver->SaveAll(fx.outliers, fx.options);
  for (const SaveResult& r : baseline) {
    ASSERT_TRUE(r.termination == SaveTermination::kCompleted ||
                r.termination == SaveTermination::kInfeasible);
  }

  // A one-shot allocation failure at the distance-cache fill. The
  // sequential batch reaches it first in ordinal 0's search, which ends as
  // kFault with its untouched tuple; every later search runs clean.
  const std::string path = ::testing::TempDir() + "/disc_journal_fault.jsonl";
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, fx.Header()).ok());
  FaultInjector injector;
  FaultSpec alloc;
  alloc.site = "dcache.fill";
  alloc.kind = FaultKind::kAllocFail;
  alloc.nth = 0;
  alloc.max_fires = 1;
  injector.Add(alloc);
  AttachGlobalFaultInjector(&injector);
  BatchRecovery journaled;
  journaled.journal = &writer;
  const std::vector<SaveResult> faulted = fx.saver->SaveAll(
      fx.outliers, fx.options, nullptr, {}, nullptr, journaled);
  AttachGlobalFaultInjector(nullptr);
  writer.Close();
  EXPECT_EQ(injector.total_fires(), 1u);
  ASSERT_EQ(faulted.size(), fx.outliers.size());
  EXPECT_EQ(faulted[0].termination, SaveTermination::kFault);
  EXPECT_FALSE(faulted[0].feasible);
  EXPECT_EQ(faulted[0].adjusted, fx.outliers[0]);

  // The faulted result is not definitive, so the journal holds every
  // ordinal but 0.
  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SaveJournal journal = std::move(loaded).value();
  ASSERT_EQ(journal.entries.size(), fx.outliers.size() - 1);
  for (std::size_t k = 0; k < journal.entries.size(); ++k) {
    EXPECT_EQ(journal.entries[k].ordinal, k + 1);
  }

  // Resume searches ordinal 0 again; the batch equals the clean run.
  BatchRecovery resume;
  resume.resume = &journal;
  const std::vector<SaveResult> resumed = fx.saver->SaveAll(
      fx.outliers, fx.options, nullptr, {}, nullptr, resume);
  ExpectBitIdenticalBatch(baseline, resumed);
}

TEST(SaveJournal, EntriesWithARetiredStatsKeyStillResume) {
  // Journals written before the retry counter was removed carry
  // "retries":0 in every entry's stats. The reader ignores unknown keys,
  // so such a journal still restores its ordinals bit-exactly.
  BatchFixture fx(53);
  ASSERT_GT(fx.outliers.size(), 2u);
  const std::vector<SaveResult> baseline =
      fx.saver->SaveAll(fx.outliers, fx.options);

  const std::string path =
      ::testing::TempDir() + "/disc_journal_retired_key.jsonl";
  SaveJournalWriter writer;
  ASSERT_TRUE(writer.Open(path, fx.Header()).ok());
  std::size_t written = 0;
  for (std::size_t i = 0; i < baseline.size(); i += 2) {
    ASSERT_TRUE(writer.Append(i, baseline[i]).ok());
    ++written;
  }
  writer.Close();

  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  const std::string key = ",\"wall_nanos\":";
  const std::string with_retries = ",\"retries\":0" + key;
  std::size_t inserted = 0;
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + with_retries.size())) {
    text.replace(at, key.size(), with_retries);
    ++inserted;
  }
  ASSERT_EQ(inserted, written);
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  Result<SaveJournal> loaded = ReadSaveJournal(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SaveJournal journal = std::move(loaded).value();
  ASSERT_EQ(journal.entries.size(), written);
  ASSERT_TRUE(journal
                  .Matches(fx.outliers.size(), fx.data.arity(), fx.constraint,
                           fx.options.kappa)
                  .ok());

  // Even ordinals restore from the edited lines; odd ones are searched.
  BatchRecovery resume;
  resume.resume = &journal;
  const std::vector<SaveResult> resumed = fx.saver->SaveAll(
      fx.outliers, fx.options, nullptr, {}, nullptr, resume);
  ExpectBitIdenticalBatch(baseline, resumed);
}

}  // namespace
}  // namespace disc
