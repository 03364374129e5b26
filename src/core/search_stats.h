#ifndef DISC_CORE_SEARCH_STATS_H_
#define DISC_CORE_SEARCH_STATS_H_

#include <cstddef>
#include <cstdint>

#include "index/neighbor_index.h"

namespace disc {

class JsonWriter;
class MetricsRegistry;
struct TraceSpan;

/// Work counters for one outlier search (or one pipeline phase).
///
/// Counting contract: a SearchStats is a plain struct owned by exactly one
/// search (it travels inside that search's BudgetGauge), so the hot path
/// pays one non-atomic increment per event — never an atomic, never a lock.
/// Cross-thread aggregation happens only after the per-search results are
/// merged in input order (DiscSaver::SaveAll), which both keeps the counting
/// race-free and makes every aggregate bit-identical for any thread count.
///
/// Every field except the timing pair (`wall_nanos`, `start_ns`) is
/// deterministic for a fixed input: the searches themselves are
/// deterministic, so SameWork() — which ignores the timing fields — holds
/// across thread counts and is asserted by tests/search_stats_test.cc.
struct SearchStats {
  /// Branch-and-bound node expansions (exact saver: candidates checked).
  std::uint64_t nodes_expanded = 0;
  /// Distinct attribute sets X visited (deduplicated nodes).
  std::uint64_t visited_sets = 0;
  /// Subtrees cut by a computed Proposition-3 lower bound (finite, or
  /// infinite = infeasible). Supersets of a cut set that the search skips
  /// without a scan (explain's prune_dominated) are not counted, so this
  /// stays "prunes per computed lower bound".
  std::uint64_t lb_prunes = 0;
  /// Proposition-3 lower-bound computations: band passes that filled the
  /// bound heap (BoundsEngine::BandPass with pruning on, LowerBoundForX).
  /// Dominated nodes are visited but compute none.
  std::uint64_t prop3_bounds = 0;
  /// Proposition-5 upper-bound computations (BoundsEngine::DonorSplice,
  /// UpperBoundForX). The unrestricted root reuses the X = ∅ seed splice
  /// and computes none.
  std::uint64_t prop5_bounds = 0;
  /// Exact feasibility checks (IsFeasible; ε-count against the index).
  std::uint64_t feasibility_checks = 0;
  /// Per-search distance-cache row requests served from memo / filled.
  std::uint64_t dcache_hits = 0;
  std::uint64_t dcache_misses = 0;
  /// Raw index traffic by query kind.
  std::uint64_t index_range_queries = 0;
  std::uint64_t index_count_queries = 0;
  std::uint64_t index_knn_queries = 0;
  /// Logical index queries — the unit metered by
  /// SearchBudget::max_index_queries: one per bound computation, kNN and
  /// feasibility check. Kept bit-identical to the pre-telemetry
  /// QueryCounter tally.
  std::uint64_t index_queries = 0;
  /// Attributes restored to their original value by the RevertRefine
  /// post-pass (each revert kept the adjustment feasible and strictly
  /// cheaper). Deterministic; cross-checked against the explain layer's
  /// revert_refine events (obs/explain.h).
  std::uint64_t revert_refines = 0;
  /// Retry attempts consumed by this search under SaveAll's RetryPolicy
  /// (attempts − 1; zero when retries are disabled or the first attempt
  /// stood). The reported counters describe the final attempt only.
  std::uint64_t retries = 0;
  /// Wall clock of the search. Summed by MergeFrom; excluded from
  /// SameWork() — timing is the one nondeterministic measurement.
  std::uint64_t wall_nanos = 0;
  /// Steady-clock start (TraceNowNs units); MergeFrom keeps the earliest
  /// nonzero start. Excluded from SameWork().
  std::uint64_t start_ns = 0;

  /// Accumulates `other` into this (sums; start_ns takes the earliest).
  void MergeFrom(const SearchStats& other);

  /// True when every deterministic work counter matches (timing ignored).
  bool SameWork(const SearchStats& other) const;

  /// Appends the counter fields to an open JSON object (schema: one
  /// "<field>": uint per counter, plus "wall_nanos").
  void AppendJson(JsonWriter* json) const;

  /// Attaches the counter fields to a trace span as integer attributes.
  void AttachTo(TraceSpan* span) const;

  /// Adds every counter into `disc_save_<field>_total` registry counters —
  /// the once-per-batch flush that keeps atomics off the search hot path.
  void FlushTo(MetricsRegistry* registry) const;
};

/// One SearchStats counter: its export name and member. Table-driven code
/// (merge, compare, JSON, span attributes, metrics, the save journal) walks
/// kSearchStatsWorkFields, so a counter added there reaches all of it.
struct SearchStatsField {
  const char* name;
  std::uint64_t SearchStats::* member;
};

/// Every work counter, in export order: all fields but the timing pair
/// (`wall_nanos`, `start_ns`).
inline constexpr SearchStatsField kSearchStatsWorkFields[] = {
    {"nodes_expanded", &SearchStats::nodes_expanded},
    {"visited_sets", &SearchStats::visited_sets},
    {"lb_prunes", &SearchStats::lb_prunes},
    {"prop3_bounds", &SearchStats::prop3_bounds},
    {"prop5_bounds", &SearchStats::prop5_bounds},
    {"feasibility_checks", &SearchStats::feasibility_checks},
    {"dcache_hits", &SearchStats::dcache_hits},
    {"dcache_misses", &SearchStats::dcache_misses},
    {"index_range_queries", &SearchStats::index_range_queries},
    {"index_count_queries", &SearchStats::index_count_queries},
    {"index_knn_queries", &SearchStats::index_knn_queries},
    {"index_queries", &SearchStats::index_queries},
    {"revert_refines", &SearchStats::revert_refines},
    {"retries", &SearchStats::retries},
};

/// Decorator that meters every query against a wrapped NeighborIndex into a
/// SearchStats (both the per-kind counters and the logical
/// `index_queries` total — one per call, exactly the unit the old
/// QueryCounter recorded, so budget accounting is bit-identical).
///
/// The wrapped index stays shared and immutable (thread-safety contract of
/// DESIGN.md §5); the decorator itself is cheap to construct per search or
/// per phase, and the stats struct is owned by that single search/phase, so
/// counting stays free of atomics on the hot path. Both references must
/// outlive the decorator.
class StatsNeighborIndex : public NeighborIndex {
 public:
  StatsNeighborIndex(const NeighborIndex& base, SearchStats* stats)
      : base_(base), stats_(stats) {}

  const char* Name() const override { return base_.Name(); }
  std::size_t size() const override { return base_.size(); }

  /// Counts one range query per visit — RangeQuery runs exactly one.
  void ForEachWithin(const Tuple& query, double epsilon,
                     NeighborVisitor visit) const override {
    ++stats_->index_range_queries;
    ++stats_->index_queries;
    base_.ForEachWithin(query, epsilon, visit);
  }

  std::size_t CountWithin(const Tuple& query, double epsilon,
                          std::size_t cap = 0) const override {
    ++stats_->index_count_queries;
    ++stats_->index_queries;
    return base_.CountWithin(query, epsilon, cap);
  }

  std::vector<Neighbor> KNearest(const Tuple& query,
                                 std::size_t k) const override {
    ++stats_->index_knn_queries;
    ++stats_->index_queries;
    return base_.KNearest(query, k);
  }

 private:
  const NeighborIndex& base_;
  SearchStats* stats_;
};

}  // namespace disc

#endif  // DISC_CORE_SEARCH_STATS_H_
