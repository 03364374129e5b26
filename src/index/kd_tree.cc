#include "index/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

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
  if (n > 0) {
    // Row-major scratch coordinates for the splits; freed once the
    // tree-order columns are built.
    std::vector<double> coords(n * dims_);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t a = 0; a < dims_; ++a) {
        coords[i * dims_ + a] = relation[i][a].num();
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

}  // namespace disc
