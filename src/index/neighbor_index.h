#ifndef DISC_INDEX_NEIGHBOR_INDEX_H_
#define DISC_INDEX_NEIGHBOR_INDEX_H_

#include <concepts>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/tuple.h"

namespace disc {

class Relation;

/// A (row index, distance) query result.
struct Neighbor {
  std::size_t row = 0;
  double distance = 0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.row == b.row && a.distance == b.distance;
  }
};

/// (distance, then row) — the order every sorted query result is reported
/// in, and the "is a better neighbor" relation of NearestHeap.
inline bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.row < b.row);
}

/// Non-owning reference to a `void(std::size_t row, double distance)`
/// callable: ForEachWithin's visitor. Stores the callable's address and a
/// trampoline — no allocation — so the callable must outlive the call it
/// is passed to (a lambda written at the call site does).
class NeighborVisitor {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, NeighborVisitor> &&
             std::invocable<F&, std::size_t, double>)
  NeighborVisitor(F&& f)  // NOLINT(runtime/explicit)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        call_(&Call<std::remove_reference_t<F>>) {}

  void operator()(std::size_t row, double distance) const {
    call_(obj_, row, distance);
  }

 private:
  template <typename F>
  static void Call(void* obj, std::size_t row, double distance) {
    (*static_cast<F*>(obj))(row, distance);
  }

  void* obj_;
  void (*call_)(void*, std::size_t, double);
};

/// The k best neighbors offered so far under NeighborLess: a bounded
/// max-heap whose front is the worst of them. Shared by the KNearest
/// implementations so every index selects — and breaks ties — alike.
class NearestHeap {
 public:
  /// `capacity_hint` bounds the reservation (callers pass the index size,
  /// so a huge k allocates nothing extra).
  NearestHeap(std::size_t k, std::size_t capacity_hint) : k_(k) {
    heap_.reserve(k < capacity_hint ? k : capacity_hint);
  }

  /// +infinity until k neighbors are held, then the worst held distance:
  /// a candidate strictly beyond it cannot enter.
  double worst() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().distance;
  }

  /// Keeps (row, distance) if it is among the k best so far. A NaN
  /// distance never enters: it is within no threshold, as in every range
  /// query, and would break NeighborLess's order inside the heap.
  void Offer(std::size_t row, double distance);

  /// The held neighbors, sorted by NeighborLess.
  std::vector<Neighbor> TakeSorted();

 private:
  std::size_t k_;
  std::vector<Neighbor> heap_;
};

/// ε-neighbor / kNN query interface over a fixed relation (paper Formula 4:
/// r_ε(t) = { t_i ∈ r | Δ(t, t_i) ≤ ε }).
///
/// Implementations index the relation they were built over; the query tuple
/// need not be part of the relation (outliers are queried against the
/// inlier set r). Results never exclude the query point itself — callers
/// querying with an indexed tuple should account for the self-match.
class NeighborIndex {
 public:
  virtual ~NeighborIndex() = default;

  /// Short implementation identifier ("brute_force", "kd_tree"), matching
  /// the `disc_index_<impl>_*` metric names. Used by diagnostics
  /// (index-construction logs); decorators forward to the wrapped index.
  virtual const char* Name() const { return "neighbor_index"; }

  /// Number of indexed tuples.
  virtual std::size_t size() const = 0;

  /// Reports every row within distance `epsilon` of `query` to `visit`,
  /// once each, with its distance — in no particular order, and without
  /// allocating a result. The one range primitive: RangeQuery, the stats
  /// decorator and DBSCAN all go through it.
  virtual void ForEachWithin(const Tuple& query, double epsilon,
                             NeighborVisitor visit) const = 0;

  /// All rows within distance `epsilon` of `query`, sorted by NeighborLess:
  /// ForEachWithin's hits, collected and sorted.
  std::vector<Neighbor> RangeQuery(const Tuple& query, double epsilon) const;

  /// Number of rows within distance `epsilon` of `query`. Implementations
  /// may stop early once `cap` matches have been found (cap = 0: count all)
  /// and then return exactly `cap`.
  virtual std::size_t CountWithin(const Tuple& query, double epsilon,
                                  std::size_t cap = 0) const = 0;

  /// The k nearest rows to `query`, sorted by NeighborLess (fewer if n < k).
  virtual std::vector<Neighbor> KNearest(const Tuple& query,
                                         std::size_t k) const = 0;

  /// The components of the core ε-graph, whose vertices are the rows
  /// flagged in `core` and whose edges join two core rows within `epsilon`
  /// of each other: for every row, the lowest core row of its component,
  /// or the row itself when it is not core. `relation` must be the
  /// relation the index was built over, and `core` holds size() flags.
  /// The ε-relation is symmetric bit for bit, so these are exactly the
  /// sets a breadth-first expansion over core rows reaches. The default
  /// runs union-find over one ForEachWithin per core row; an override may
  /// skip any pair it already knows to be connected. All state is per
  /// call (DESIGN.md §5).
  virtual std::vector<std::size_t> CoreComponents(
      const Relation& relation, const std::vector<bool>& core,
      double epsilon) const;
};

}  // namespace disc

#endif  // DISC_INDEX_NEIGHBOR_INDEX_H_
