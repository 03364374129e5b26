#include "index/kd_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/relation.h"
#include "index/lowest_root_sets.h"

namespace disc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strict weak order on one coordinate for the median splits: NaN after
/// every number (a plain `<` is no ordering once NaN is present).
inline bool CoordBefore(double a, double b) {
  return std::isnan(b) ? !std::isnan(a) : a < b;
}

// The per-query sinks that Walk drives. Each carries the threshold the
// boxes and leaf scans test against, the kernel hit function, and whether
// the query is finished.

/// ForEachWithin: forwards each hit, mapped back to its relation row.
struct VisitSink {
  double threshold;
  const std::size_t* order;
  const NeighborVisitor* visit;

  static bool Hit(void* ctx, std::size_t pos, double distance) {
    auto* s = static_cast<VisitSink*>(ctx);
    (*s->visit)(s->order[pos], distance);
    return true;
  }
  bool done() const { return false; }
};

/// CountWithin: counts hits and stops the scan once `cap` (when nonzero)
/// is reached.
struct CountSink {
  double threshold;
  std::size_t cap;
  std::size_t count = 0;

  static bool Hit(void* ctx, std::size_t /*pos*/, double /*distance*/) {
    auto* s = static_cast<CountSink*>(ctx);
    ++s->count;
    return !s->done();
  }
  bool done() const { return cap != 0 && count >= cap; }
};

/// KNearest: offers each hit to the heap; the threshold tracks the heap's
/// worst distance, so later boxes and leaves are tested against it.
struct KnnSink {
  double threshold;
  const std::size_t* order;
  NearestHeap heap;

  static bool Hit(void* ctx, std::size_t pos, double distance) {
    auto* s = static_cast<KnnSink*>(ctx);
    s->heap.Offer(s->order[pos], distance);
    s->threshold = s->heap.worst();
    return true;
  }
  bool done() const { return false; }
};

}  // namespace

KdTree::KdTree(const Relation& relation, LpNorm norm)
    : dims_(relation.arity()),
      norm_(norm),
      metrics_(IndexQueryMetrics::For("kd_tree")) {
  const std::size_t n = relation.size();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  column_flags_.assign(dims_, 0);
  if (n > 0) {
    // Row-major scratch coordinates for the splits; freed once the
    // tree-order columns are built.
    std::vector<double> coords(n * dims_);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < dims_; ++a) {
        const double v = relation[i][a].num();
        coords[i * dims_ + a] = v;
        if (std::isnan(v)) column_flags_[a] |= kNanCell;
        if (v == kInf) column_flags_[a] |= kPosInfCell;
        if (v == -kInf) column_flags_[a] |= kNegInfCell;
      }
    }
    Build(coords, 0, n);
  }
  view_ = ColumnarView::BuildOrdered(relation, norm, order_);
}

void KdTree::Build(const std::vector<double>& coords, std::size_t begin,
                   std::size_t end) {
  const std::size_t self = nodes_.size();
  nodes_.push_back({begin, end, -1});
  const std::size_t m = dims_;
  boxes_.resize(boxes_.size() + 2 * m);
  double* box = boxes_.data() + self * 2 * m;
  // The box of the rows, and the widest attribute (by its non-NaN extent)
  // to split on. A NaN cell makes the box unbounded on its attribute.
  std::size_t axis = 0;
  double widest = -1;
  for (std::size_t a = 0; a < m; ++a) {
    double lo = kInf;
    double hi = -kInf;
    bool nan = false;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = coords[order_[i] * m + a];
      if (std::isnan(v)) {
        nan = true;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (hi - lo > widest) {
      widest = hi - lo;
      axis = a;
    }
    box[2 * a] = nan ? -kInf : lo;
    box[2 * a + 1] = nan ? kInf : hi;
  }
  if (end - begin <= kLeafSize) return;

  // Split at the lane-aligned position nearest below the median, so every
  // node (hence every leaf) starts on a lane block of the view.
  const std::size_t half = (end - begin) / 2;
  const std::size_t mid =
      begin + half / ColumnarView::kLanePad * ColumnarView::kLanePad;
  const auto first = order_.begin();
  std::nth_element(first + static_cast<std::ptrdiff_t>(begin),
                   first + static_cast<std::ptrdiff_t>(mid),
                   first + static_cast<std::ptrdiff_t>(end),
                   [&](std::size_t x, std::size_t y) {
                     return CoordBefore(coords[x * m + axis],
                                        coords[y * m + axis]);
                   });
  Build(coords, begin, mid);
  nodes_[self].right = static_cast<int>(nodes_.size());
  Build(coords, mid, end);
}

std::optional<double> KdTree::BoxDistanceWithin(std::size_t node,
                                                const double* query,
                                                double threshold) const {
  // Per attribute, the gap from the query to the box (0 inside it, or for
  // a NaN query coordinate) is at most |q − v| for every row value v in
  // the box: rounding is monotone, so fl(lo − q) ≤ fl(v − q). Accumulated
  // in canonical order by the same recurrence as the rows' distances, the
  // box's aggregate is therefore at most every row's, bit for bit, and a
  // box that exceeds the threshold holds no row the scan would accept.
  const double* box = boxes_.data() + node * 2 * dims_;
  LpAccumulator acc(norm_);
  for (std::size_t a = 0; a < dims_; ++a) {
    const double q = query[a];
    const double lo = box[2 * a];
    const double hi = box[2 * a + 1];
    acc.Add(q < lo ? lo - q : (q > hi ? q - hi : 0.0));
    if (acc.Exceeds(threshold)) return std::nullopt;
  }
  return acc.Total();
}

bool KdTree::BoxWithinOn(std::size_t node, const double* query,
                         AttributeSet x, double threshold) const {
  // The attributes of X in ascending order, each gap by the rule of
  // BoxDistanceWithin: the sum stays at most every row's sum on X.
  const double* box = boxes_.data() + node * 2 * dims_;
  LpAccumulator acc(norm_);
  for (std::uint64_t bits = x.bits(); bits != 0; bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    const double q = query[a];
    const double lo = box[2 * a];
    const double hi = box[2 * a + 1];
    acc.Add(q < lo ? lo - q : (q > hi ? q - hi : 0.0));
    if (acc.Exceeds(threshold)) return false;
  }
  return true;
}

bool KdTree::SomeDistanceIsNan(const Tuple& query) const {
  if (norm_ == LpNorm::kLInf || order_.empty()) return false;
  for (std::size_t a = 0; a < dims_; ++a) {
    const double q = query[a].num();
    const std::uint8_t flags = column_flags_[a];
    if (std::isnan(q) || (flags & kNanCell) != 0 ||
        (q == kInf && (flags & kPosInfCell) != 0) ||
        (q == -kInf && (flags & kNegInfCell) != 0)) {
      return true;
    }
  }
  return false;
}

template <typename Sink>
void KdTree::Search(const FlatKernel& kernel, Sink* sink) const {
  if (!BoxDistanceWithin(0, kernel.query().data(), sink->threshold)) return;
  simd::ScanDelta delta;
  Walk(0, kernel, sink, &delta);
  view_->FlushScan(delta);
}

template <typename Sink>
void KdTree::Walk(std::size_t node, const FlatKernel& kernel, Sink* sink,
                  simd::ScanDelta* delta) const {
  const Node& n = nodes_[node];
  if (n.right < 0) {
    kernel.VisitWithin(sink->threshold, n.begin, n.end, &Sink::Hit, sink,
                       delta);
    return;
  }
  const double* q = kernel.query().data();
  const double threshold = sink->threshold;
  std::size_t near = node + 1;
  auto far = static_cast<std::size_t>(n.right);
  std::optional<double> near_box = BoxDistanceWithin(near, q, threshold);
  std::optional<double> far_box = BoxDistanceWithin(far, q, threshold);
  if (far_box && (!near_box || *far_box < *near_box)) {
    std::swap(near, far);
    std::swap(near_box, far_box);
  }
  if (near_box) {
    Walk(near, kernel, sink, delta);
    if (sink->done()) return;
  }
  // A kNN threshold may have shrunk during the nearer subtree: retest.
  if (far_box && (sink->threshold == threshold ||
                  BoxDistanceWithin(far, q, sink->threshold))) {
    Walk(far, kernel, sink, delta);
  }
}

void KdTree::ForEachWithin(const Tuple& query, double epsilon,
                           NeighborVisitor visit) const {
  if (metrics_.range_queries != nullptr) metrics_.range_queries->Add();
  if (nodes_.empty()) return;
  const FlatKernel kernel(*view_, query);
  VisitSink sink{epsilon, order_.data(), &visit};
  Search(kernel, &sink);
}

std::size_t KdTree::CountWithin(const Tuple& query, double epsilon,
                                std::size_t cap) const {
  if (metrics_.count_queries != nullptr) metrics_.count_queries->Add();
  if (nodes_.empty()) return 0;
  const FlatKernel kernel(*view_, query);
  CountSink sink{epsilon, cap};
  Search(kernel, &sink);
  // The lane block that reached the cap may have counted past it.
  return sink.done() ? cap : sink.count;
}

std::vector<Neighbor> KdTree::KNearest(const Tuple& query,
                                       std::size_t k) const {
  if (metrics_.knn_queries != nullptr) metrics_.knn_queries->Add();
  if (nodes_.empty() || k == 0) return {};
  const FlatKernel kernel(*view_, query);
  KnnSink sink{kInf, order_.data(), NearestHeap(k, order_.size())};
  Search(kernel, &sink);
  return sink.heap.TakeSorted();
}

/// CoreComponents' state, all of it local to the call. Node `node` is
/// represented once every core row of its subtree is known to share one
/// component: rep[node] then holds one of those rows. Union-find only
/// merges, so a representative never turns wrong; a walk from a core row
/// skips each node represented in that row's own component, where a scan
/// could only join rows already joined. A leaf is checked after a scan that
/// joined something; an internal node is represented when both children
/// are, in one component (a child without core rows agrees with anything).
struct KdTree::ComponentWalk {
  /// rep[] markers besides a row: not (yet) known to be one component, and
  /// a subtree without core rows.
  static constexpr std::size_t kUnknown =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kNoCore = kUnknown - 1;

  const KdTree& tree;
  const Relation& relation;
  double epsilon;
  LowestRootSets sets;
  std::vector<std::uint8_t> core_at;  ///< core flag per tree position
  std::vector<std::size_t> rep;       ///< per node
  simd::ScanDelta delta;
  // The current scan: its query row and tree position, whether it stops at
  // its first core hit (a represented leaf: one witness joins all of it),
  // and how many of its hits joined two components.
  std::size_t query_row = 0;
  std::size_t query_pos = 0;
  bool stop_at_core = false;
  std::size_t joins = 0;

  ComponentWalk(const KdTree& t, const Relation& r,
                const std::vector<bool>& core, double eps)
      : tree(t),
        relation(r),
        epsilon(eps),
        sets(t.order_.size()),
        core_at(t.order_.size()),
        rep(t.nodes_.size(), kNoCore) {
    for (std::size_t pos = 0; pos < core_at.size(); ++pos) {
      core_at[pos] = core[t.order_[pos]] ? 1 : 0;
    }
  }

  static bool Hit(void* ctx, std::size_t pos, double /*distance*/) {
    auto* w = static_cast<ComponentWalk*>(ctx);
    if (w->core_at[pos] == 0) return true;
    if (w->sets.Union(w->query_row, w->tree.order_[pos])) ++w->joins;
    return !w->stop_at_core;
  }

  /// Scans the leaf rows [begin, end) against the query row, joining it
  /// with every core row it hits.
  void Scan(std::size_t begin, std::size_t end, const FlatKernel& kernel) {
    joins = 0;
    kernel.VisitWithin(epsilon, begin, end, &Hit, this, &delta);
  }

  /// Represents internal node `node` when both children are represented in
  /// one component.
  void MergeChildren(std::size_t node) {
    const std::size_t a = rep[node + 1];
    const std::size_t b =
        rep[static_cast<std::size_t>(tree.nodes_[node].right)];
    if (a == kNoCore || b == kNoCore) {
      rep[node] = a == kNoCore ? b : a;
    } else if (a != kUnknown && b != kUnknown &&
               sets.Find(a) == sets.Find(b)) {
      rep[node] = a;
    } else {
      rep[node] = kUnknown;
    }
  }

  /// Pass 1: each core row against its own leaf only, until the leaf's core
  /// rows form one component. Every join here is inside one leaf, so the
  /// leaf's component count is its core rows less its joins. Then every
  /// node starts represented when its subtree is.
  void JoinWithinLeaves() {
    for (std::size_t node = 0; node < tree.nodes_.size(); ++node) {
      const Node& n = tree.nodes_[node];
      if (n.right >= 0) continue;
      std::size_t components = 0;
      std::size_t first = kNoCore;
      for (std::size_t pos = n.begin; pos < n.end; ++pos) {
        if (core_at[pos] == 0) continue;
        ++components;
        if (first == kNoCore) first = tree.order_[pos];
      }
      rep[node] = components == 0   ? kNoCore
                  : components == 1 ? first
                                    : kUnknown;
      for (std::size_t pos = n.begin; pos < n.end && components > 1; ++pos) {
        if (core_at[pos] == 0) continue;
        query_pos = pos;
        query_row = tree.order_[pos];
        Scan(n.begin, n.end, FlatKernel(*tree.view_, relation[query_row]));
        components -= joins;
        if (components == 1) rep[node] = first;
      }
    }
    // Preorder puts both children after their parent.
    for (std::size_t node = tree.nodes_.size(); node-- > 0;) {
      if (tree.nodes_[node].right >= 0) MergeChildren(node);
    }
  }

  /// True when `node` holds nothing the current walk could join: no core
  /// row, every core row already in the query row's component, or the
  /// query row's own leaf, which pass 1 covered.
  bool Skip(std::size_t node) {
    const std::size_t r = rep[node];
    if (r == kNoCore) return true;
    if (r != kUnknown && sets.Find(r) == sets.Find(query_row)) return true;
    const Node& n = tree.nodes_[node];
    return n.right < 0 && n.begin <= query_pos && query_pos < n.end;
  }

  /// Pass 2, from one node whose box is within ε of the query row.
  void Walk(std::size_t node, const FlatKernel& kernel) {
    const Node& n = tree.nodes_[node];
    if (n.right < 0) {
      stop_at_core = rep[node] != kUnknown;
      Scan(n.begin, n.end, kernel);
      stop_at_core = false;
      if (joins > 0 && rep[node] == kUnknown) CheckLeaf(node);
      return;
    }
    const double* q = kernel.query().data();
    std::size_t near = node + 1;
    auto far = static_cast<std::size_t>(n.right);
    std::optional<double> near_box;
    std::optional<double> far_box;
    if (!Skip(near)) near_box = tree.BoxDistanceWithin(near, q, epsilon);
    if (!Skip(far)) far_box = tree.BoxDistanceWithin(far, q, epsilon);
    if (far_box && (!near_box || *far_box < *near_box)) {
      std::swap(near, far);
      std::swap(near_box, far_box);
    }
    if (near_box) Walk(near, kernel);
    // The nearer subtree's joins may have put the farther one in the query
    // row's component.
    if (far_box && !Skip(far)) Walk(far, kernel);
    if (rep[node] == kUnknown) MergeChildren(node);
  }

  void CheckLeaf(std::size_t node) {
    const Node& n = tree.nodes_[node];
    std::size_t first = kNoCore;
    std::size_t root = 0;
    for (std::size_t pos = n.begin; pos < n.end; ++pos) {
      if (core_at[pos] == 0) continue;
      const std::size_t r = sets.Find(tree.order_[pos]);
      if (first == kNoCore) {
        first = tree.order_[pos];
        root = r;
      } else if (r != root) {
        return;
      }
    }
    rep[node] = first;
  }

  /// Pass 2: one walk per core row, in tree order.
  void JoinAcrossLeaves() {
    for (std::size_t pos = 0; pos < core_at.size(); ++pos) {
      if (core_at[pos] == 0) continue;
      query_pos = pos;
      query_row = tree.order_[pos];
      if (Skip(0)) {
        // A represented root holds every core row, all joined; otherwise
        // the root is the query row's own leaf, which pass 1 covered.
        if (rep[0] != kUnknown) return;
        continue;
      }
      const FlatKernel kernel(*tree.view_, relation[query_row]);
      if (tree.BoxDistanceWithin(0, kernel.query().data(), epsilon)) {
        Walk(0, kernel);
      }
    }
  }
};

std::vector<std::size_t> KdTree::CoreComponents(const Relation& relation,
                                                const std::vector<bool>& core,
                                                double epsilon) const {
  if (nodes_.empty()) return {};
  ComponentWalk walk(*this, relation, core, epsilon);
  walk.JoinWithinLeaves();
  walk.JoinAcrossLeaves();
  view_->FlushScan(walk.delta);
  return walk.sets.Roots();
}

}  // namespace disc
