#ifndef DISC_INDEX_KTH_NEIGHBOR_CACHE_H_
#define DISC_INDEX_KTH_NEIGHBOR_CACHE_H_

#include <vector>

#include "common/relation.h"
#include "index/neighbor_index.h"

namespace disc {

class WorkStealingPool;

/// Precomputes δ_η(t) — the distance from each indexed tuple t to its η-th
/// nearest neighbor within the same relation (self excluded: a tuple counts
/// itself as one of its ε-neighbors per Formula 4, so the η-th neighbor of t
/// in r including t itself is the (η-1)-th other tuple).
///
/// This is the quantity Algorithm 1 line 4 filters on: t qualifies for the
/// upper bound of Proposition 5 iff δ_η(t) ≤ ε − Δ(t_o[X], t[X]).
class KthNeighborCache {
 public:
  /// Builds the cache by running an η-NN query per tuple; the tuple itself
  /// counts among its neighbors (Formula 4). With `pool`, the rows run in
  /// fixed-grain ParallelFor chunks, each writing its own δ slots, so the
  /// cache is bit-identical for every pool size.
  KthNeighborCache(const Relation& relation, const NeighborIndex& index,
                   std::size_t eta, WorkStealingPool* pool = nullptr);

  /// δ_η for tuple `row`.
  double delta(std::size_t row) const { return deltas_[row]; }
  /// All δ_η values, indexed by row.
  const std::vector<double>& deltas() const { return deltas_; }
  /// The η the cache was built for.
  std::size_t eta() const { return eta_; }

 private:
  std::size_t eta_;
  std::vector<double> deltas_;
};

}  // namespace disc

#endif  // DISC_INDEX_KTH_NEIGHBOR_CACHE_H_
