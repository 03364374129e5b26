#ifndef DISC_CORE_BOUNDS_H_
#define DISC_CORE_BOUNDS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/search_budget.h"
#include "core/search_distance_cache.h"
#include "distance/evaluator.h"
#include "index/kth_neighbor_cache.h"
#include "index/neighbor_index.h"

namespace disc {

class KdTree;
class WorkStealingPool;

/// The feasibility check of both savers: does `candidate` have ≥ η
/// ε-neighbors in `index`? The candidate counts toward its own η total
/// (Formula 4), so η−1 inliers suffice. With a gauge it is metered as one
/// logical index query and charged to the index_query wall phase.
bool CountFeasible(const NeighborIndex& index,
                   const DistanceConstraint& constraint, const Tuple& candidate,
                   BudgetGauge* gauge = nullptr);

/// Where one search's band passes read their rows and distances
/// (DESIGN.md §4). It has two forms with the same bounds, bands, donors and
/// decisions, bit for bit:
///  - over a SearchDistanceCache: band rows are relation rows, a pass that
///    starts from all rows walks all n of them, and every distance comes
///    from the cache. Relations the kd-tree does not serve, searches with a
///    NaN full distance, and every caller that hands in a cache use it.
///  - over the kd-tree (BoundsEngine::TreeFor): band rows are tree
///    positions, a pass that would start from all rows walks the tree
///    instead, and every distance is computed from the tree's tree-order
///    columns. Nothing is filled per search.
/// The referenced cache, tree and outlier must outlive the source.
class BandSource {
 public:
  /// The all-rows form over `dcache`. Implicit, so a cache is accepted
  /// wherever a source is.
  BandSource(const SearchDistanceCache& dcache)  // NOLINT(runtime/explicit)
      : dcache_(&dcache) {}
  /// The tree form for `outlier`, which TreeFor returned `tree` for.
  BandSource(const KdTree& tree, const Tuple& outlier);

  /// True when some full-space distance is NaN (never in the tree form).
  bool has_nan() const { return dcache_ != nullptr && dcache_->has_nan(); }

 private:
  friend class BoundsEngine;

  const SearchDistanceCache* dcache_ = nullptr;
  const KdTree* tree_ = nullptr;
  const Tuple* outlier_ = nullptr;
  std::vector<double> q_;  ///< the outlier's cells (tree form)
};

/// Bound computations of §3.1 / §3.2, shared by the DISC approximation and
/// by tests that sandwich the exact optimum.
///
/// Context: an outlier tuple t_o is to be adjusted under constraint (ε, η)
/// against the inlier set r. The bounds are parameterized by the set X of
/// *unadjusted* attributes (the adjustment may only change R \ X).
///
/// Both Proposition 3 and Proposition 5 look only at the band
/// r_ε(t_o[X]) — the inliers within ε of t_o on X. The search evaluates a
/// node with one BandPass, which collects the band as a row list and fills
/// the Prop-3 heap in the same loop, and then one DonorSplice over that
/// list. Bands only shrink as X grows (r_ε(t_o[X ∪ {a}]) ⊆ r_ε(t_o[X])),
/// so a child's pass walks its parent's list instead of all n rows. A pass
/// with no list to inherit starts from all rows: over a SearchDistanceCache
/// it walks all n, over the kd-tree (BandSource) it walks the leaves whose
/// boxes lie within ε of t_o on X, and at X = ∅ it asks nearest-neighbour
/// queries instead. LowerBoundForX / UpperBoundForX are the all-rows forms
/// of the same two passes.
///
/// Every method takes an optional BudgetGauge. With a gauge, each bound
/// computation is metered as one logical index query and the row scans
/// poll the gauge (strided) so an expired deadline or a cancellation stops
/// a scan mid-flight. An abandoned computation returns a *safe* value — an
/// uninformative lower bound (0), no upper bound, or "not feasible" — never
/// a partial result; callers detect the stop via gauge->stopped() and
/// unwind with their incumbent. Without a gauge, behaviour is unchanged.
///
/// Each pass is one grain-pure chunk body: it runs inline as a single
/// chunk, or across a WorkStealingPool (`nested` parameter) when the walked
/// list is long enough to pay. Chunk boundaries are a pure function of
/// (list length, grain), each chunk reduces into its own slot, and the
/// merges below are order-insensitive reconstructions of the sequential
/// reduction (k-smallest multiset for Prop 3; ascending-chunk strict-<
/// minimum for Prop 5; chunk-ordered concatenation for the band), so
/// results stay bit-identical to the single chunk for any worker count.
/// Parallel chunks poll the gauge's thread-safe HardStopRequested()
/// instead of KeepScanning(); on a stop the owner records the reason and
/// returns the same safe value.
class BoundsEngine {
 public:
  /// `relation` is the inlier set r; `cache` holds δ_η(t) per inlier
  /// (Proposition 5 needs "t has η (ε − Δ(t_o[X], t[X]))-neighbors", which
  /// is exactly δ_η(t) ≤ ε − Δ(t_o[X], t[X])). All references must outlive
  /// the engine. Band lists hold 32-bit row numbers, so a relation of
  /// 2^32 or more rows is rejected with std::length_error.
  BoundsEngine(const Relation& relation, const DistanceEvaluator& evaluator,
               const NeighborIndex& index, const KthNeighborCache& cache,
               DistanceConstraint constraint);

  /// The band r_ε(t_o[X]) of one search node: its X and the qualifying
  /// rows in ascending order (relation rows or tree positions, by the
  /// BandSource), each with the raw accumulator of Δ(t_o[X], t[X]) — the
  /// sum (L1), the sum of squares (L2) or the max (L∞) of the canonical
  /// recurrence, whose total is Δ — and its full-space Δ(t_o, t). A child's
  /// pass inherits both with the row. At X = ∅ every row qualifies with
  /// Δ = 0, which `all_rows` records instead of an n-entry list.
  struct Band {
    AttributeSet x;
    std::vector<std::uint32_t> rows;
    std::vector<double> acc;
    std::vector<double> full;
    bool all_rows = false;
  };

  /// Lower bound of Lemma 2 (X = ∅ special case): Δ(t_o, t_1) − ε where t_1
  /// is the η-th nearest inlier to t_o. Returns 0 when fewer than η inliers
  /// exist (no informative bound).
  double GlobalLowerBound(const Tuple& outlier,
                          BudgetGauge* gauge = nullptr) const;

  /// The kd-tree that can serve the band passes of `outlier`'s search as
  /// a BandSource, or null when they must run over a SearchDistanceCache:
  /// the index is not a KdTree over this relation's eligible metric
  /// (ColumnarView::Eligible), or some Δ(outlier, t) is NaN
  /// (KdTree::SomeDistanceIsNan).
  const KdTree* TreeFor(const Tuple& outlier) const;

  /// One band pass for X over `source`. Walks `parent` (the band of a
  /// subset of X, from the same source), or starts from all rows when
  /// `parent` is null or all-rows or when `source.has_nan()` (a NaN
  /// attribute distance breaks the monotonicity that makes the parent's
  /// list a superset). When every attribute X adds to the parent's follows
  /// all of the parent's in ascending order, each row continues the
  /// parent's accumulator over the added attributes alone — the same
  /// recurrence, so the same bits; from any other parent it starts from
  /// zero. Writes the band of X into `*band`. With
  /// `lower_bound`, the same loop keeps the η−1 smallest full-space
  /// distances and the pass returns the Proposition-3 bound (see
  /// LowerBoundForX); otherwise it returns 0 and counts no Prop-3
  /// computation. `band` must not alias `parent`. An abandoned pass returns
  /// 0 and leaves `*band` incomplete — check gauge->stopped() before using
  /// either.
  double BandPass(const BandSource& source, const AttributeSet& x,
                  const Band* parent, bool lower_bound, Band* band,
                  BudgetGauge* gauge = nullptr,
                  WorkStealingPool* nested = nullptr) const;

  /// Lower bound of Proposition 3: Δ(t_o, t_1) − ε where t_1 is the η-th
  /// nearest neighbor of t_o within r_ε(t_o[X]) (inliers whose distance to
  /// t_o *on X* is ≤ ε). Returns +infinity when fewer than η inliers
  /// qualify — no feasible adjustment with unadjusted X exists at all.
  ///
  /// The all-rows form of BandPass. `dcache`, when supplied, must be the
  /// per-search cache built for this `outlier` over this relation;
  /// otherwise a scalar-backed cache is built for the call. `nested`, when
  /// supplied, chunks the row scan across idle pool workers (see the class
  /// comment).
  double LowerBoundForX(const Tuple& outlier, const AttributeSet& x,
                        BudgetGauge* gauge = nullptr,
                        const SearchDistanceCache* dcache = nullptr,
                        WorkStealingPool* nested = nullptr) const;

  /// Upper bound of Proposition 5. Finds t_2 ∈ r_ε(t_o[X]) with
  /// δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]) minimizing Δ(t_o[R\X], t_2[R\X]), and
  /// returns the spliced tuple t_o^u (t_o on X, t_2 on R\X) together with
  /// its adjustment cost. Empty when no such t_2 exists.
  struct UpperBound {
    Tuple adjusted;
    double cost = 0;
    std::size_t donor_row = 0;  ///< row of t_2 in r
  };

  /// The Proposition-5 donor reduction over `band`, which must be the band
  /// of X from a BandPass over the same `source` (for `outlier`). Each
  /// donor is the minimum by (cost, relation row), so the band's row order
  /// never decides a tie.
  std::optional<UpperBound> DonorSplice(const Tuple& outlier,
                                        const AttributeSet& x,
                                        const BandSource& source,
                                        const Band& band,
                                        BudgetGauge* gauge = nullptr,
                                        WorkStealingPool* nested = nullptr) const;

  /// The all-rows form: a BandPass from all rows, then DonorSplice.
  /// `dcache` and `nested` as for LowerBoundForX.
  std::optional<UpperBound> UpperBoundForX(
      const Tuple& outlier, const AttributeSet& x, BudgetGauge* gauge = nullptr,
      const SearchDistanceCache* dcache = nullptr,
      WorkStealingPool* nested = nullptr) const;

  /// Feasibility check: does `candidate` have ≥ η ε-neighbors in r?
  bool IsFeasible(const Tuple& candidate, BudgetGauge* gauge = nullptr) const {
    return CountFeasible(index_, constraint_, candidate, gauge);
  }

 private:
  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  const NeighborIndex& index_;
  const KthNeighborCache& cache_;
  DistanceConstraint constraint_;
  const KdTree* tree_ = nullptr;  ///< `index_` when it serves BandSources
};

}  // namespace disc

#endif  // DISC_CORE_BOUNDS_H_
