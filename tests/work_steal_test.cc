// WorkStealingPool scheduler semantics plus the determinism contract of the
// cost-ordered parallel saving path built on it: every index runs exactly
// once, priority order is respected, steals happen under contention, nested
// ParallelFor covers its range with schedule-independent chunk boundaries,
// exceptions propagate without wedging the pool, and DiscSaver::SaveAll
// stays bit-identical (including SearchStats::SameWork) across thread
// counts, under cancellation fired mid-batch, and with the chunked bound
// scans engaged on a large relation. Runs under TSan in the tsan-core CI
// shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"
#include "index/kth_neighbor_cache.h"

namespace disc {
namespace {

std::vector<std::size_t> Iota(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(WorkStealingPool, RunBatchExecutesEveryIndexExactlyOnce) {
  WorkStealingPool pool(4);
  const std::size_t n = 100;
  std::vector<std::size_t> order = Iota(n);
  // A scrambled priority order must not change coverage.
  std::reverse(order.begin() + 10, order.end() - 10);

  std::vector<std::atomic<int>> runs(n);
  const WorkStealingPool::SchedStats before = pool.stats();
  pool.RunBatch(order, [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
  const WorkStealingPool::SchedStats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, n);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, SingleWorkerRunsPriorityOrderFrontToBack) {
  // With one worker there is exactly one deque and no thief: execution
  // order must equal the caller's priority order (hardest first), which is
  // the property the cost-ordered SaveAll scheduling relies on.
  WorkStealingPool pool(1);
  const std::vector<std::size_t> order = {5, 2, 7, 0, 6, 1, 4, 3};
  std::vector<std::size_t> sequence;
  std::mutex mu;
  pool.RunBatch(order, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    sequence.push_back(i);
  });
  EXPECT_EQ(sequence, order);
}

TEST(WorkStealingPool, StealsOccurWhenOneWorkerIsBusy) {
  // Priority slot 0 lands on worker 0's deque and sleeps; the rest of
  // worker 0's queue can only drain through steals by worker 1. This is
  // the steal-under-contention stress the scheduler exists for.
  WorkStealingPool pool(2);
  const std::size_t n = 40;
  std::atomic<int> ran{0};
  const WorkStealingPool::SchedStats before = pool.stats();
  pool.RunBatch(Iota(n), [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), static_cast<int>(n));
  const WorkStealingPool::SchedStats after = pool.stats();
  EXPECT_GE(after.steals - before.steals, 1u)
      << "idle worker never stole from the busy worker's deque";
}

TEST(WorkStealingPool, ParallelForCoversRangeWithFixedChunks) {
  WorkStealingPool pool(4);
  const std::size_t n = 10000;
  const std::size_t grain = 128;
  std::vector<std::atomic<int>> touched(n);
  std::atomic<std::size_t> chunks{0};
  pool.ParallelFor(0, n, grain,
                   [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                     // Chunk boundaries are a pure function of (range,
                     // grain) — the determinism precondition for the
                     // chunked bound-scan merges.
                     EXPECT_EQ(begin, chunk * grain);
                     EXPECT_EQ(end, std::min(n, begin + grain));
                     for (std::size_t i = begin; i < end; ++i) {
                       touched[i].fetch_add(1, std::memory_order_relaxed);
                     }
                     chunks.fetch_add(1, std::memory_order_relaxed);
                   });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(touched[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(chunks.load(), (n + grain - 1) / grain);
}

TEST(WorkStealingPool, ParallelForSmallRangeRunsInlineAsChunkZero) {
  WorkStealingPool pool(4);
  std::vector<std::size_t> chunk_ids;
  pool.ParallelFor(0, 100, 128,
                   [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                     EXPECT_EQ(begin, 0u);
                     EXPECT_EQ(end, 100u);
                     chunk_ids.push_back(chunk);
                   });
  ASSERT_EQ(chunk_ids.size(), 1u);
  EXPECT_EQ(chunk_ids[0], 0u);
}

TEST(WorkStealingPool, ParallelForNestedInsideBatchTasks) {
  // Every batch task fans out its own inner scan — the worker helps only
  // with its own group, idle workers pick up the rest. Sums must come out
  // exact regardless of who ran which chunk.
  WorkStealingPool pool(3);
  const std::size_t tasks = 8;
  const std::size_t n = 5000;
  std::vector<std::uint64_t> sums(tasks, 0);
  pool.RunBatch(Iota(tasks), [&](std::size_t t) {
    std::vector<std::uint64_t> partial((n + 99) / 100, 0);
    pool.ParallelFor(0, n, 100,
                     [&](std::size_t begin, std::size_t end,
                         std::size_t chunk) {
                       std::uint64_t s = 0;
                       for (std::size_t i = begin; i < end; ++i) s += i;
                       partial[chunk] = s;
                     });
    sums[t] = std::accumulate(partial.begin(), partial.end(),
                              std::uint64_t{0});
  });
  const std::uint64_t want = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  for (std::size_t t = 0; t < tasks; ++t) {
    EXPECT_EQ(sums[t], want) << "task " << t;
  }
  const WorkStealingPool::SchedStats stats = pool.stats();
  EXPECT_GE(stats.nested_chunks, tasks * ((n + 99) / 100));
}

TEST(WorkStealingPool, BatchExceptionPropagatesAndPoolStaysUsable) {
  WorkStealingPool pool(2);
  const std::size_t n = 16;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.RunBatch(Iota(n),
                    [&](std::size_t i) {
                      ran.fetch_add(1, std::memory_order_relaxed);
                      if (i == 3) throw std::runtime_error("task 3 failed");
                    }),
      std::runtime_error);
  // The batch drains: every task still ran exactly once.
  EXPECT_EQ(ran.load(), static_cast<int>(n));

  // The pool survives the failed batch.
  std::atomic<int> again{0};
  pool.RunBatch(Iota(n), [&](std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), static_cast<int>(n));
}

// ---------------------------------------------------------------------------
// Cost-ordered SaveAll on top of the pool.

/// Clusters with a strided slice of corrupted rows whose displacement
/// varies widely, so the batch has genuinely skewed search costs.
Relation MakeSkewedDataset(std::uint64_t seed, std::size_t per_cluster,
                           std::size_t corrupt_stride) {
  std::vector<ClusterSpec> specs = {
      {{0, 0, 0, 0}, 0.5, per_cluster},
      {{12, 12, 0, 0}, 0.5, per_cluster},
      {{0, 12, 12, 0}, 0.5, per_cluster},
      {{12, 0, 0, 12}, 0.5, per_cluster},
  };
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed);
  Rng rng(seed + 1);
  for (std::size_t row = corrupt_stride / 2; row < mixture.data.size();
       row += corrupt_stride) {
    const std::size_t a = static_cast<std::size_t>(rng.UniformInt(0, 3));
    const double magnitude = 18.0 + rng.Uniform() * 60.0;
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    mixture.data[row][a] = Value(mixture.data[row][a].num() + sign * magnitude);
    if (row % (3 * corrupt_stride) < corrupt_stride) {
      mixture.data[row][(a + 2) % 4] = Value(-20.0 - rng.Uniform() * 10.0);
    }
  }
  return std::move(mixture.data);
}

struct SaverFixture {
  Relation inliers;
  std::vector<Tuple> outliers;
  std::unique_ptr<DiscSaver> saver;
};

SaverFixture MakeSaver(Relation data, const DistanceEvaluator& evaluator,
                       DistanceConstraint constraint) {
  SaverFixture f;
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  f.inliers = data.Select(split.inlier_rows);
  for (std::size_t row : split.outlier_rows) f.outliers.push_back(data[row]);
  f.saver = std::make_unique<DiscSaver>(f.inliers, evaluator, constraint);
  return f;
}

/// Trace sink keeping every span (the batch drain emits from one thread).
struct SpanCapture : TraceSink {
  void Emit(const TraceSpan& span) override { spans.push_back(span); }
  std::vector<TraceSpan> spans;
};

void ExpectBitIdentical(const std::vector<SaveResult>& a,
                        const std::vector<SaveResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "outlier " << i;
    ASSERT_EQ(a[i].adjusted.size(), b[i].adjusted.size());
    for (std::size_t c = 0; c < a[i].adjusted.size(); ++c) {
      // NaN matches NaN: an unsaved outlier keeps its NaN cell.
      EXPECT_TRUE(SameValue(a[i].adjusted[c], b[i].adjusted[c]))
          << "outlier " << i << " cell " << c;
    }
    EXPECT_TRUE(a[i].cost == b[i].cost ||
                (std::isnan(a[i].cost) && std::isnan(b[i].cost)))
        << "outlier " << i;
    EXPECT_EQ(a[i].termination, b[i].termination) << "outlier " << i;
    EXPECT_EQ(a[i].lower_bound, b[i].lower_bound) << "outlier " << i;
    EXPECT_EQ(a[i].adjusted_attributes.bits(), b[i].adjusted_attributes.bits());
    EXPECT_EQ(a[i].kappa_exceeded, b[i].kappa_exceeded) << "outlier " << i;
    EXPECT_EQ(a[i].stats.index_queries, b[i].stats.index_queries)
        << "outlier " << i;
    EXPECT_TRUE(a[i].stats.SameWork(b[i].stats))
        << "outlier " << i << " did schedule-dependent work";
  }
}

TEST(CostOrderedSaveAll, BitIdenticalAcrossThreadCounts) {
  Relation data = MakeSkewedDataset(/*seed=*/71, /*per_cluster=*/80,
                                    /*corrupt_stride=*/9);
  DistanceEvaluator evaluator(data.schema());
  SaverFixture f = MakeSaver(std::move(data), evaluator, {1.6, 5});
  ASSERT_GT(f.outliers.size(), 10u);

  SaveOptions options;
  options.kappa = 2;
  std::vector<SaveResult> reference = f.saver->SaveAll(f.outliers, options);
  for (std::size_t threads : {1u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    std::vector<SaveResult> got =
        f.saver->SaveAll(f.outliers, options, &pool);
    ExpectBitIdentical(reference, got);
  }
}

TEST(CostOrderedSaveAll, CancellationMidBatchIsSoundAndPoolReusable) {
  Relation data = MakeSkewedDataset(/*seed=*/29, /*per_cluster=*/80,
                                    /*corrupt_stride=*/9);
  DistanceEvaluator evaluator(data.schema());
  SaverFixture f = MakeSaver(std::move(data), evaluator, {1.6, 5});
  ASSERT_GT(f.outliers.size(), 10u);

  WorkStealingPool pool(4);
  SaveOptions options;
  options.kappa = 2;

  // Fire batch-wide cancellation from inside a running search, after the
  // batch has expanded a few dozen nodes across its workers — mid-batch,
  // while steals and nested chunks are in flight. The injected kCancel
  // fault at the 48th `search.node` hit replaces the old per-node hook:
  // hit indices are assigned atomically across workers, so the fault fires
  // exactly once, on some node of some in-flight search.
  FaultInjector injector;
  FaultSpec cancel_spec;
  cancel_spec.site = "search.node";
  cancel_spec.kind = FaultKind::kCancel;
  cancel_spec.nth = 48;
  injector.Add(cancel_spec);
  AttachGlobalFaultInjector(&injector);
  BatchBudget batch;
  batch.cancellation = injector.token();

  std::vector<SaveResult> degraded =
      f.saver->SaveAll(f.outliers, options, &pool, batch);
  AttachGlobalFaultInjector(nullptr);
  ASSERT_EQ(degraded.size(), f.outliers.size())
      << "every outlier must be recorded, cancelled or not";
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    const SaveResult& r = degraded[i];
    const bool sound = r.termination == SaveTermination::kCompleted ||
                       r.termination == SaveTermination::kInfeasible ||
                       r.termination == SaveTermination::kCancelled;
    EXPECT_TRUE(sound) << "outlier " << i << " termination "
                       << static_cast<int>(r.termination);
    if (r.termination == SaveTermination::kCancelled && !r.feasible) {
      EXPECT_EQ(r.adjusted, f.outliers[i])
          << "cancelled search without incumbent must return the input";
    }
  }
  EXPECT_TRUE(injector.cancel_fired());

  // The pool must come out of a cancelled batch fully serviceable: a clean
  // rerun on the same pool matches the no-pool reference bit for bit.
  SaveOptions clean;
  clean.kappa = 2;
  std::vector<SaveResult> reference = f.saver->SaveAll(f.outliers, clean);
  std::vector<SaveResult> rerun =
      f.saver->SaveAll(f.outliers, clean, &pool);
  ExpectBitIdentical(reference, rerun);
}

/// Pooled SaveAll on 4 workers against the sequential run: bit-identical
/// results, and below each search the span tree ends at its phase spans
/// (nested chunks export none). Returns the pool's nested chunk count.
std::uint64_t ExpectPooledSaveAllMatchesSequential(
    const SaverFixture& f, const std::vector<Tuple>& outliers,
    const SaveOptions& options) {
  std::vector<SaveResult> reference = f.saver->SaveAll(outliers, options);
  WorkStealingPool pool(4);
  const WorkStealingPool::SchedStats before = pool.stats();
  SpanCapture trace;
  std::vector<SaveResult> parallel =
      f.saver->SaveAll(outliers, options, &pool, {}, &trace);
  ExpectBitIdentical(reference, parallel);
  std::set<std::uint64_t> searches;
  for (const TraceSpan& span : trace.spans) {
    if (span.name == "search") searches.insert(span.span_id);
  }
  EXPECT_EQ(searches.size(), outliers.size());
  for (const TraceSpan& span : trace.spans) {
    if (span.name == "search" || span.name == "estimate") continue;
    EXPECT_EQ(searches.count(span.parent_id), 1u)
        << span.name << " span below a search's phase spans";
  }
  return pool.stats().nested_chunks - before.nested_chunks;
}

TEST(CostOrderedSaveAll, NestedScansDeterministicOnLargeRelation) {
  // Large enough that the chunked bound scans can engage (the nested path
  // needs lists of >= 2 * grain = 16384 rows): 4 clusters x 5000. The
  // kd-tree serves these searches with bands of a few hundred rows, so
  // this run checks bit-identity on the pool; the all-rows run below
  // checks the chunk merges.
  Relation data = MakeSkewedDataset(/*seed=*/83, /*per_cluster=*/5000,
                                    /*corrupt_stride=*/2500);
  DistanceEvaluator evaluator(data.schema());
  SaverFixture f = MakeSaver(std::move(data), evaluator, {1.6, 5});
  ASSERT_GE(f.inliers.size(), 2u * 8192u)
      << "dataset too small for the nested scan path";
  ASSERT_GT(f.outliers.size(), 2u);
  SaveOptions options;
  options.kappa = 2;
  ExpectPooledSaveAllMatchesSequential(f, f.outliers, options);

  // A NaN cell makes every L2 full distance of its outlier NaN, which
  // sends the search down the all-rows walk over its distance cache:
  // 20k-row passes that chunk across the pool. This is the end-to-end
  // check of the k-smallest / chunk-minima merge logic.
  std::vector<Tuple> with_nan = f.outliers;
  for (std::size_t i = 0; i < with_nan.size(); i += 2) {
    with_nan[i][i % 4] = Value(std::nan(""));
  }
  EXPECT_GT(ExpectPooledSaveAllMatchesSequential(f, with_nan, options), 0u)
      << "nested scan path never engaged on a 20k-row relation";
}

// ---------------------------------------------------------------------------
// Band passes on the pool: chunked results equal the single inline chunk.

/// 20k uniform rows in [0, 10]^4 around an outlier at the centre, so the
/// band of {0} is every row and the band of {0, 1} is a shorter list that
/// is still long enough to chunk (at ε = 6 it drops the square's corners).
struct BandFixture {
  Relation inliers{Schema::Numeric(4)};
  std::unique_ptr<DistanceEvaluator> evaluator;
  std::unique_ptr<NeighborIndex> index;
  std::unique_ptr<KthNeighborCache> knn;
  std::unique_ptr<BoundsEngine> engine;
  Tuple outlier = Tuple::Numeric({5.0, 5.0, 5.0, 5.0});

  BandFixture() {
    Rng rng(909);
    for (std::size_t i = 0; i < 20000; ++i) {
      inliers.AppendUnchecked(
          Tuple::Numeric({rng.Uniform(0, 10), rng.Uniform(0, 10),
                          rng.Uniform(0, 10), rng.Uniform(0, 10)}));
    }
    evaluator = std::make_unique<DistanceEvaluator>(inliers.schema());
    const DistanceConstraint constraint{6.0, 6};
    index = MakeNeighborIndex(inliers, *evaluator);  // kd-tree: cheap kNN
    knn = std::make_unique<KthNeighborCache>(inliers, *index, constraint.eta);
    engine = std::make_unique<BoundsEngine>(inliers, *evaluator, *index, *knn,
                                            constraint);
  }
};

/// Runs the band pass for `x` from `parent` and the donor splice over its
/// band inline, then on 1-, 4- and 8-worker pools, and expects the band,
/// the lower bound and the splice to match bit for bit. Returns the pools'
/// nested chunk count.
std::uint64_t ExpectPooledBandPassMatchesInline(
    const BandFixture& f, const BandSource& source, const AttributeSet& x,
    const BoundsEngine::Band* parent) {
  BoundsEngine::Band want;
  const double want_lb =
      f.engine->BandPass(source, x, parent, true, &want);
  const auto want_ub = f.engine->DonorSplice(f.outlier, x, source, want);
  EXPECT_TRUE(want_ub.has_value());
  std::uint64_t chunks = 0;
  for (std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    WorkStealingPool pool(threads);
    BoundsEngine::Band band;
    const double lb =
        f.engine->BandPass(source, x, parent, true, &band, nullptr, &pool);
    EXPECT_EQ(lb, want_lb);
    EXPECT_EQ(band.rows, want.rows);
    EXPECT_EQ(band.acc, want.acc);
    EXPECT_EQ(band.full, want.full);
    const auto ub =
        f.engine->DonorSplice(f.outlier, x, source, band, nullptr, &pool);
    EXPECT_EQ(ub.has_value(), want_ub.has_value());
    if (ub.has_value() && want_ub.has_value()) {
      EXPECT_EQ(ub->cost, want_ub->cost);
      EXPECT_EQ(ub->donor_row, want_ub->donor_row);
      EXPECT_TRUE(ub->adjusted == want_ub->adjusted);
    }
    chunks += pool.stats().nested_chunks;
  }
  return chunks;
}

TEST(NestedBandPass, AllRowsPassMatchesInlineAtEveryThreadCount) {
  BandFixture f;
  const SearchDistanceCache dcache(f.inliers, *f.evaluator, f.outlier);
  ASSERT_GE(f.inliers.size(), 2u * 8192u);
  EXPECT_GT(ExpectPooledBandPassMatchesInline(f, dcache, AttributeSet{0},
                                              nullptr),
            0u)
      << "the chunked band pass never engaged";
}

TEST(NestedBandPass, InheritedListPassMatchesInlineAtEveryThreadCount) {
  BandFixture f;
  const SearchDistanceCache dcache(f.inliers, *f.evaluator, f.outlier);
  BoundsEngine::Band first, parent;
  f.engine->BandPass(dcache, AttributeSet{0}, nullptr, false, &first);
  f.engine->BandPass(dcache, AttributeSet{0, 1}, &first, false, &parent);
  ASSERT_LT(parent.rows.size(), f.inliers.size());
  ASSERT_GE(parent.rows.size(), 2u * 8192u)
      << "inherited list too short for the chunked path";
  EXPECT_GT(ExpectPooledBandPassMatchesInline(f, dcache, AttributeSet{0, 1, 2},
                                              &parent),
            0u)
      << "the chunked band pass never engaged";
}

TEST(NestedBandPass, TreeInheritedListPassMatchesInlineAtEveryThreadCount) {
  // The same passes over the kd-tree's rows: the band of {0, 1} comes from
  // one tree walk, and the inherited pass for {0, 1, 2} and its donor
  // splice chunk across the pool in tree order, where only the (cost,
  // relation row) tie-break keeps the donors of every chunking equal.
  BandFixture f;
  const KdTree* tree = f.engine->TreeFor(f.outlier);
  ASSERT_NE(tree, nullptr);
  const BandSource source(*tree, f.outlier);
  BoundsEngine::Band parent;
  f.engine->BandPass(source, AttributeSet{0, 1}, nullptr, false, &parent);
  ASSERT_GE(parent.rows.size(), 2u * 8192u)
      << "tree band too short for the chunked path";
  EXPECT_GT(ExpectPooledBandPassMatchesInline(f, source,
                                              AttributeSet{0, 1, 2}, &parent),
            0u)
      << "the chunked band pass never engaged";
}

}  // namespace
}  // namespace disc
