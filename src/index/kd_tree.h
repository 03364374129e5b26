#ifndef DISC_INDEX_KD_TREE_H_
#define DISC_INDEX_KD_TREE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/relation.h"
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

  void Build(const std::vector<double>& coords, std::size_t begin,
             std::size_t end);
  /// The distance from `query` to the bounding box of `node`, or nullopt
  /// once it exceeds `threshold` (no row in the box can then be within).
  std::optional<double> BoxDistanceWithin(std::size_t node,
                                          const double* query,
                                          double threshold) const;
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
};

}  // namespace disc

#endif  // DISC_INDEX_KD_TREE_H_
