#ifndef DISC_INDEX_KD_TREE_H_
#define DISC_INDEX_KD_TREE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/relation.h"
#include "common/tuple.h"
#include "distance/columnar.h"
#include "distance/lp_norm.h"
#include "index/neighbor_index.h"

namespace disc {

/// KD-tree over an all-numeric relation of 1–64 attributes with the unit
/// absolute-difference attribute metric, under L1, L2 or L∞ — the index
/// MakeNeighborIndex returns for every such relation.
///
/// The rows are stored in tree order in a lane-padded ColumnarView read
/// straight from the relation, so every leaf is a contiguous, lane-aligned
/// run of at most kLeafSize rows that the FlatKernel batch visit scans on
/// the SIMD tier (DESIGN.md §12). Each node keeps the bounding box of its
/// rows. A subtree is pruned when
/// the box's distance to the query (per-attribute gaps aggregated by the
/// LpAccumulator recurrence, in canonical attribute order) already exceeds
/// the threshold. That distance is a lower bound for every row in the box,
/// because a NaN cell unbounds its box on that attribute (L∞ drops NaN
/// terms, so such a row may lie anywhere along it); pruning therefore never
/// changes a verdict, and every reported row and distance is bit-identical
/// to the scalar reference, BruteForceIndex.
///
/// Besides the NeighborIndex queries, the tree serves the bound passes of
/// a DISC search (core/bounds.h): its tree-order columns, a leaf walk
/// pruned on a subset X of the attributes, a nearest-first leaf walk under
/// a caller-lowered bound, and a NaN verdict read from per-column flags.
///
/// Thread-safety: immutable after construction; every query keeps its
/// state (FlatKernel, scan counters, heap, union-find) per call
/// (DESIGN.md §5).
class KdTree : public NeighborIndex {
 public:
  /// Builds the tree over `relation` (median splits on the widest attribute
  /// at lane-aligned positions). The tree keeps its own copy of the rows.
  explicit KdTree(const Relation& relation, LpNorm norm = LpNorm::kL2);

  const char* Name() const override { return "kd_tree"; }
  std::size_t size() const override { return order_.size(); }
  void ForEachWithin(const Tuple& query, double epsilon,
                     NeighborVisitor visit) const override;
  /// Capped counts descend into the nearer child first and stop at the end
  /// of the lane block that reached the cap.
  std::size_t CountWithin(const Tuple& query, double epsilon,
                          std::size_t cap = 0) const override;
  /// Visits children in order of box distance, pruning boxes beyond the
  /// current k-th best distance.
  std::vector<Neighbor> KNearest(const Tuple& query,
                                 std::size_t k) const override;
  /// Union-find in two passes over tree positions: each core row against
  /// its own leaf, then one walk per core row that skips every subtree
  /// already known to lie in that row's component (ComponentWalk).
  std::vector<std::size_t> CoreComponents(const Relation& relation,
                                          const std::vector<bool>& core,
                                          double epsilon) const override;

  /// True when Δ(query, t) is NaN for some indexed row t, decided from
  /// per-column flags recorded at build instead of a scan. L∞ drops NaN
  /// terms, so it never is. Under L1 and L2 a NaN term makes the sum NaN,
  /// and |q − v| is NaN exactly when q or v is NaN or both are the same
  /// infinity: the answer is yes when some indexed cell is NaN, when the
  /// tree holds a row and the query has a NaN cell, or when q[a] = ±∞ and
  /// column a holds that same infinity.
  bool SomeDistanceIsNan(const Tuple& query) const;

  /// The rows in tree order; position `pos` holds relation row
  /// row_at(pos).
  const ColumnarView& view() const { return *view_; }
  std::size_t row_at(std::size_t pos) const { return order_[pos]; }

  /// Runs `leaf(begin, end)` on the tree positions of every leaf whose box
  /// lies within `threshold` of `query` on the attributes of `x` alone, in
  /// ascending position order, and stops (returning false) once `leaf`
  /// returns false. The box distance sums the gaps of X in ascending
  /// attribute order by BoxDistanceWithin's rule, so it is a bitwise lower
  /// bound on every partial sum of a row's distance on X, and a pruned
  /// leaf holds no row whose running sum stays within `threshold`.
  template <typename Leaf>
  bool ForEachLeafWithinOn(const double* query, AttributeSet x,
                           double threshold, Leaf&& leaf) const {
    return nodes_.empty() || LeavesWithinOn(0, query, x, threshold, leaf);
  }

  /// Nearer child first, runs `leaf(begin, end)` on every leaf whose box
  /// distance to `query` (all attributes) is at most `bound()`, and stops
  /// (returning false) once `leaf` returns false. `bound()` is read again
  /// before each subtree, so a leaf may lower it. The box distance is a
  /// lower bound on every row's distance in the box, so a skipped leaf
  /// holds no row at or below the bound: a nearest-row search whose bound
  /// is its best distance so far still meets every row that ties it.
  template <typename Bound, typename Leaf>
  bool ForEachLeafNearest(const double* query, Bound&& bound,
                          Leaf&& leaf) const {
    return nodes_.empty() || LeavesNearest(0, query, bound, leaf);
  }

 private:
  /// The tree-order rows [begin, end) of view_. A leaf has right = -1; an
  /// internal node's left child is the next node (preorder).
  struct Node {
    std::size_t begin = 0;
    std::size_t end = 0;
    int right = -1;
  };

  /// CoreComponents' per-call state and passes.
  struct ComponentWalk;

  /// Nodes with more rows are split.
  static constexpr std::size_t kLeafSize = 64;
  /// A threshold no box distance exceeds: BoxDistanceWithin then returns
  /// the whole sum (box gaps are never NaN).
  static constexpr double kNoThreshold =
      std::numeric_limits<double>::infinity();
  /// Per-column cell flags for SomeDistanceIsNan.
  enum : std::uint8_t { kNanCell = 1, kPosInfCell = 2, kNegInfCell = 4 };

  void Build(const std::vector<double>& coords, std::size_t begin,
             std::size_t end);
  /// The distance from `query` to the bounding box of `node`, or nullopt
  /// once it exceeds `threshold` (no row in the box can then be within).
  std::optional<double> BoxDistanceWithin(std::size_t node,
                                          const double* query,
                                          double threshold) const;
  /// BoxDistanceWithin over the attributes of `x` only: false once the sum
  /// exceeds `threshold`.
  bool BoxWithinOn(std::size_t node, const double* query, AttributeSet x,
                   double threshold) const;
  template <typename Leaf>
  bool LeavesWithinOn(std::size_t node, const double* query, AttributeSet x,
                      double threshold, Leaf& leaf) const {
    if (!BoxWithinOn(node, query, x, threshold)) return true;
    const Node& n = nodes_[node];
    if (n.right < 0) return leaf(n.begin, n.end);
    return LeavesWithinOn(node + 1, query, x, threshold, leaf) &&
           LeavesWithinOn(static_cast<std::size_t>(n.right), query, x,
                          threshold, leaf);
  }
  template <typename Bound, typename Leaf>
  bool LeavesNearest(std::size_t node, const double* query, Bound& bound,
                     Leaf& leaf) const {
    const Node& n = nodes_[node];
    if (n.right < 0) return leaf(n.begin, n.end);
    std::size_t near = node + 1;
    auto far = static_cast<std::size_t>(n.right);
    double near_box = *BoxDistanceWithin(near, query, kNoThreshold);
    double far_box = *BoxDistanceWithin(far, query, kNoThreshold);
    if (far_box < near_box) {
      std::swap(near, far);
      std::swap(near_box, far_box);
    }
    if (!(near_box > bound()) && !LeavesNearest(near, query, bound, leaf)) {
      return false;
    }
    return far_box > bound() || LeavesNearest(far, query, bound, leaf);
  }
  /// Runs `sink` over every leaf whose box is within its threshold.
  template <typename Sink>
  void Search(const FlatKernel& kernel, Sink* sink) const;
  template <typename Sink>
  void Walk(std::size_t node, const FlatKernel& kernel, Sink* sink,
            simd::ScanDelta* delta) const;

  std::size_t dims_ = 0;
  LpNorm norm_;
  /// Process-wide raw-traffic counters, resolved at construction from the
  /// global registry; all-null (guarded no-op increments) when detached.
  IndexQueryMetrics metrics_;
  /// Tree position → relation row.
  std::vector<std::size_t> order_;
  /// Preorder; the root is node 0.
  std::vector<Node> nodes_;
  /// Node i's box: (lo, hi) per attribute at [2·m·i, 2·m·(i + 1)).
  std::vector<double> boxes_;
  /// The rows in tree order.
  std::unique_ptr<ColumnarView> view_;
  /// Per attribute, which of kNanCell, kPosInfCell and kNegInfCell its
  /// column holds.
  std::vector<std::uint8_t> column_flags_;
};

}  // namespace disc

#endif  // DISC_INDEX_KD_TREE_H_
