#ifndef DISC_CORE_SEARCH_DISTANCE_CACHE_H_
#define DISC_CORE_SEARCH_DISTANCE_CACHE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "core/search_stats.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"

namespace disc {

struct SearchObserver;
class WorkStealingPool;

/// Per-outlier-search distance cache for the branch-and-bound hot loops.
///
/// Within one outlier's search, the full-space distance Δ(t_o, t) to each
/// inlier is invariant across every B&B node, and every Proposition-3 band
/// pass needs it. This cache computes the full-distance vector ONCE per
/// search and serves it from a flat array thereafter. Likewise the
/// per-attribute distances Δ(t_o[A], t[A]) are invariant; they are memoized
/// lazily (one n-sized row per attribute, filled on first touch), so the
/// bound scans turn every subset distance Δ(t_o[X], t[X]) into a short sum
/// over cached doubles — no Value unwrapping, no virtual metric dispatch.
///
/// It serves the searches the kd-tree does not: DiscSaver builds one (on
/// the scalar evaluator) for a search over a relation that is not
/// ColumnarView::Eligible or whose full distances hold a NaN, and the
/// all-rows BoundsEngine wrappers build a scalar-backed one when the caller
/// passes none. Every other search reads its bands from the kd-tree's own
/// columns (BandSource, core/bounds.h) and fills nothing.
///
/// Determinism contract: cached entries are produced by exactly the scalar
/// arithmetic (via FlatKernel when a ColumnarView is supplied, whose kernels
/// are bit-identical to DistanceEvaluator by construction, or via the
/// evaluator itself otherwise); the bound scans sum the attribute rows by
/// the canonical recurrence (LpAccumulator's arithmetic, as NormPolicy) in
/// increasing attribute order, so every value and every threshold verdict
/// matches DistanceEvaluator bit for bit.
///
/// Thread-safety: NONE — the lazy rows mutate under const. A cache is a
/// per-search, stack-local object owned by a single worker; it is never
/// shared across threads (the shared-state immutability contract of
/// DESIGN.md §5 applies to indexes, not to this).
class SearchDistanceCache {
 public:
  /// Builds the cache for one outlier search. `view` is the columnar view
  /// of `relation` (ColumnarView::Build with `evaluator`), or null for the
  /// scalar reference — the only choice for a relation the columnar tier
  /// does not serve. All references must outlive the cache; `outlier` must
  /// not be mutated while the cache is live. `stats` (optional) receives one
  /// dcache_miss per lazily filled attribute row and one dcache_hit per
  /// row request served from the memo. `pool` (optional) parallelizes the
  /// eager full-distance fill — each row's entry is independent, so chunked
  /// writes produce the identical vector; the lazy attribute rows stay
  /// single-threaded (they mutate under const and must only ever be touched
  /// by the owning search thread). `observer` (optional) charges the eager
  /// and lazy fills to the dcache_fill wall phase.
  SearchDistanceCache(const Relation& relation,
                      const DistanceEvaluator& evaluator, const Tuple& outlier,
                      const ColumnarView* view = nullptr,
                      SearchStats* stats = nullptr,
                      WorkStealingPool* pool = nullptr,
                      SearchObserver* observer = nullptr);

  /// Number of inlier rows n.
  std::size_t rows() const { return full_.size(); }
  /// True when the columnar kernels back this cache.
  bool columnar() const { return kernel_.has_value(); }

  /// Cached full-space distance Δ(t_o, t_row).
  double FullDistance(std::size_t row) const { return full_[row]; }

  /// True when some full-space distance is NaN. Under L1 and L2 a NaN
  /// attribute distance (a NaN cell in the outlier or in an inlier) makes
  /// the whole sum NaN; L∞ drops NaN terms, so its vector never holds one.
  /// Band inheritance and dominance pruning rest on monotone partial sums,
  /// which a NaN term breaks, so a search reads this once to decide
  /// whether they apply (DESIGN.md §4).
  bool has_nan() const { return has_nan_; }

  /// The memoized n-entry row of Δ(t_o[a], t_i[a]) for attribute `a`,
  /// filled on first touch. The bound loops resolve a subset's row pointers
  /// once and accumulate inline over the rows they walk. Hit/miss is
  /// metered at this resolution granularity (one event per row request),
  /// never inside the per-attribute accumulation loops.
  const double* attribute_row(std::size_t a) const {
    if (stats_ != nullptr && !attr_rows_[a].empty()) ++stats_->dcache_hits;
    return AttributeRow(a);
  }

 private:
  /// The memoized row for attribute `a`, filling it on first touch.
  const double* AttributeRow(std::size_t a) const;

  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  const Tuple& outlier_;
  SearchStats* stats_;  ///< optional; owned by the same single search
  SearchObserver* observer_;  ///< optional; same ownership as stats_
  std::optional<FlatKernel> kernel_;
  std::vector<double> full_;                           ///< eager, n entries
  bool has_nan_ = false;
  mutable std::vector<std::vector<double>> attr_rows_;  ///< lazy, m rows
};

}  // namespace disc

#endif  // DISC_CORE_SEARCH_DISTANCE_CACHE_H_
