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

class WorkStealingPool;

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
/// so a child's pass walks its parent's list instead of all n rows.
/// LowerBoundForX / UpperBoundForX are the all-rows forms of the same two
/// passes.
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

  /// The band r_ε(t_o[X]) of one search node: the qualifying rows in
  /// ascending order, each with its Δ(t_o[X], t[X]). At X = ∅ every row
  /// qualifies with Δ = 0, which `all_rows` records instead of an n-entry
  /// list.
  struct Band {
    std::vector<std::uint32_t> rows;
    std::vector<double> dx;
    bool all_rows = false;
  };

  /// Lower bound of Lemma 2 (X = ∅ special case): Δ(t_o, t_1) − ε where t_1
  /// is the η-th nearest inlier to t_o. Returns 0 when fewer than η inliers
  /// exist (no informative bound).
  double GlobalLowerBound(const Tuple& outlier,
                          BudgetGauge* gauge = nullptr) const;

  /// One band pass for X over the search cache `dcache`. Walks `parent`
  /// (the band of a subset of X), or all rows when `parent` is null or
  /// when `dcache.has_nan()` (a NaN attribute distance breaks the
  /// monotonicity that makes the parent's list a superset). Writes the
  /// band of X into `*band`. With `lower_bound`, the same loop keeps the
  /// η−1 smallest full-space distances and the pass returns the
  /// Proposition-3 bound (see LowerBoundForX); otherwise it returns 0 and
  /// counts no Prop-3 computation. `band` must not alias `parent`. An
  /// abandoned pass returns 0 and leaves `*band` incomplete — check
  /// gauge->stopped() before using either.
  double BandPass(const SearchDistanceCache& dcache, const AttributeSet& x,
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
  /// of X from a BandPass over the same `dcache` (built for `outlier`).
  std::optional<UpperBound> DonorSplice(const Tuple& outlier,
                                        const AttributeSet& x,
                                        const SearchDistanceCache& dcache,
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
  bool IsFeasible(const Tuple& candidate, BudgetGauge* gauge = nullptr) const;

  /// The constraint in force.
  const DistanceConstraint& constraint() const { return constraint_; }
  /// The inlier relation r.
  const Relation& relation() const { return relation_; }
  /// The distance evaluator.
  const DistanceEvaluator& evaluator() const { return evaluator_; }

 private:
  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  const NeighborIndex& index_;
  const KthNeighborCache& cache_;
  DistanceConstraint constraint_;
};

}  // namespace disc

#endif  // DISC_CORE_BOUNDS_H_
