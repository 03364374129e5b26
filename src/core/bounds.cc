#include "core/bounds.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.h"
#include "core/observation.h"
#include "distance/columnar.h"
#include "distance/columnar_internal.h"
#include "distance/lp_norm.h"
#include "index/kd_tree.h"

namespace disc {

namespace {

using columnar_internal::kInf;
using columnar_internal::NormPolicy;
using columnar_internal::WithNorm;

/// The per-search observer riding on the gauge (null when none).
inline SearchObserver* ObserverOf(BudgetGauge* gauge) {
  return gauge != nullptr ? gauge->observer() : nullptr;
}

/// Rows per nested chunk for the parallel bound scans, and the poll stride
/// for the thread-safe hard-stop probe inside a chunk (matching the
/// sequential KeepScanning stride).
constexpr std::size_t kNestedScanGrain = 8192;
constexpr std::size_t kNestedPollStride = 64;

/// Chunks a pass over `count` list entries runs as: 1 (inline) unless
/// chunking across `pool` pays for itself.
inline std::size_t ScanChunks(const WorkStealingPool* pool,
                              std::size_t count) {
  if (pool == nullptr || pool->size() <= 1 || count < 2 * kNestedScanGrain) {
    return 1;
  }
  return (count + kNestedScanGrain - 1) / kNestedScanGrain;
}

/// Budget poll of a pass that runs inline: the gauge's own strided
/// KeepScanning, which also hits the `bounds.scan` fault site.
struct InlinePoll {
  BudgetGauge* gauge;
  bool operator()() const {
    return gauge == nullptr || gauge->KeepScanning();
  }
};

/// Budget poll of one parallel chunk: every kNestedPollStride rows, the
/// thread-safe hard-stop probe, shared with the sibling chunks through
/// `aborted`.
struct ChunkPoll {
  const BudgetGauge* gauge;
  std::atomic<bool>* aborted;
  std::size_t polls = 0;
  bool operator()() {
    if (gauge == nullptr || (++polls % kNestedPollStride) != 0) return true;
    if (aborted->load(std::memory_order_relaxed)) return false;
    if (gauge->HardStopRequested()) {
      aborted->store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }
};

/// Closes a scan: an abandoned one is counted in the decision log, whose
/// safe values flag the searches whose bound-quality data is polluted by
/// truncation. Returns `completed`.
bool FinishScan(bool completed, BudgetGauge* gauge) {
  SearchObserver* observer = ObserverOf(gauge);
  if (!completed && observer != nullptr) ++observer->abandoned_scans;
  return completed;
}

/// Runs the grain-pure chunk body `body(begin, end, chunk, poll)` over
/// list positions [0, count): inline as chunk 0, or as ScanChunks() chunks
/// on `nested`. The body returns false once its poll says stop. Returns
/// false when the scan was abandoned, after folding the stop into the gauge
/// and the decision log; the caller then returns its safe value.
template <class Body>
bool RunScan(std::size_t count, BudgetGauge* gauge, WorkStealingPool* nested,
             Body&& body) {
  if (ScanChunks(nested, count) == 1) {
    InlinePoll poll{gauge};
    return FinishScan(body(std::size_t{0}, count, std::size_t{0}, poll),
                      gauge);
  }
  std::atomic<bool> aborted{false};
  nested->ParallelFor(
      0, count, kNestedScanGrain,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        ChunkPoll poll{gauge, &aborted};
        body(begin, end, chunk, poll);
      });
  const bool completed = !aborted.load(std::memory_order_relaxed);
  if (!completed) gauge->RecordHardStop();
  return FinishScan(completed, gauge);
}

/// Δ(t_o[a], t[a]) for the attributes of one subset, in ascending order,
/// read from the memoized attribute rows of a SearchDistanceCache (rows are
/// relation rows). Resolved once per pass so the row loops touch flat
/// arrays with no per-row subset iteration or lazy-fill checks. Resolve on
/// the calling thread: AttributeRow's lazy fill mutates under const and
/// must never run inside a chunk.
struct CachedAttrs {
  std::array<const double*, AttributeSet::kCapacity> rows;
  std::size_t count = 0;

  CachedAttrs(const SearchDistanceCache& dcache, const AttributeSet& x,
              std::size_t arity) {
    for (std::size_t a = 0; a < arity; ++a) {
      if (x.contains(a)) rows[count++] = dcache.attribute_row(a);
    }
  }
  double operator()(std::size_t j, std::size_t row) const {
    return rows[j][row];
  }
};

/// The same values computed from the kd-tree's tree-order columns (rows
/// are tree positions): |q[a] − v|, the arithmetic of the unit
/// absolute-difference metric and of the cache's fills.
struct TreeAttrs {
  std::array<const double*, AttributeSet::kCapacity> cols;
  std::array<double, AttributeSet::kCapacity> q;
  std::size_t count = 0;

  TreeAttrs(const ColumnarView& view, const std::vector<double>& query,
            const AttributeSet& x) {
    for (std::size_t a = 0; a < view.arity(); ++a) {
      if (!x.contains(a)) continue;
      cols[count] = view.column(a);
      q[count++] = query[a];
    }
  }
  double operator()(std::size_t j, std::size_t pos) const {
    return std::fabs(q[j] - cols[j][pos]);
  }
};

/// The one accumulation of every band and donor loop: the canonical
/// recurrence of Formula 1 (NormPolicy<N>::Add over the attributes in
/// ascending order, the arithmetic of DistanceEvaluator::DistanceOnWithin)
/// continued from `acc` over the terms [from, attrs.count) of `row`. `over`
/// is set once a running value exceeds `raw` (NormPolicy<N>::Raw of the
/// threshold) and is never cleared, so a NaN term after an exceeding prefix
/// still rejects the row, as the evaluator's early exit does. The sum itself
/// runs to the end: nothing in the loop branches on the data.
template <LpNorm N, class Attrs>
inline double Accumulate(const Attrs& attrs, std::size_t from,
                         std::size_t row, double acc, double raw, bool& over) {
  for (std::size_t j = from; j < attrs.count; ++j) {
    acc = NormPolicy<N>::Add(acc, attrs(j, row));
    over |= acc > raw;
  }
  return acc;
}

/// Δ over every attribute of `attrs` at `row`, with no threshold.
template <LpNorm N, class Attrs>
inline double Distance(const Attrs& attrs, std::size_t row) {
  bool over = false;
  return NormPolicy<N>::Total(
      Accumulate<N>(attrs, 0, row, 0.0, kInf, over));
}

/// The band verdict of a row whose accumulator over X is `acc`: kept unless
/// some prefix exceeded ε or the total does, i.e. unless
/// DistanceEvaluator::DistanceOnWithin(X, t_o, t, ε) > ε.
template <LpNorm N>
inline bool Kept(double acc, bool over, double eps) {
  return !over & !(NormPolicy<N>::Total(acc) > eps);
}

/// How many of X's attributes, in ascending order, a pass over `parent`'s
/// band can take from the parent's accumulators: all of the parent's when
/// every attribute X adds follows them, since X's recurrence then begins
/// with the parent's; none otherwise.
inline std::size_t ResumeFrom(const AttributeSet& parent,
                              const AttributeSet& x) {
  const std::uint64_t added = x.bits() & ~parent.bits();
  const std::uint64_t lowest_added = added & (~added + 1);
  const bool extends = (parent.bits() & ~x.bits()) == 0 &&
                       (added == 0 || parent.bits() < lowest_added);
  return extends ? parent.size() : 0;
}

/// Keeps the `needed` smallest values offered so far in a max-heap.
inline void KeepSmallest(std::vector<double>* heap, std::size_t needed,
                         double d) {
  if (heap->size() < needed) {
    heap->push_back(d);
    std::push_heap(heap->begin(), heap->end());
  } else if (d < heap->front()) {
    std::pop_heap(heap->begin(), heap->end());
    heap->back() = d;
    std::push_heap(heap->begin(), heap->end());
  }
}

/// True when KeepSmallest would change the heap: it is not full yet, or `d`
/// lies below its top. The loops test this before offering a row, so a row
/// the heap cannot take costs one compare. `needed` must be positive.
inline bool Takes(const std::vector<double>& heap, std::size_t needed,
                  double d) {
  return heap.size() < needed || d < heap.front();
}

/// Sizes a band's lists for rows [0, n) without clearing them first: the
/// loops overwrite every slot they count, so only growth is filled.
void Resize(BoundsEngine::Band* band, std::size_t n) {
  band->rows.resize(n);
  band->acc.resize(n);
  band->full.resize(n);
}

/// One parallel chunk's share of a band pass.
struct BandChunk {
  BoundsEngine::Band band;
  std::vector<double> heap;
};

/// Running Proposition-5 donor minima, each by (cost, relation row): the
/// strict-< first minimum of an ascending relation-order walk, and the same
/// donor for any other order. A cost of +infinity (or NaN) never becomes a
/// donor.
struct DonorBest {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  double qualified = std::numeric_limits<double>::infinity();
  std::size_t qualified_row = kNone;
  double any = std::numeric_limits<double>::infinity();
  std::size_t any_row = kNone;

  static bool Before(double cost, std::size_t row, double best,
                     std::size_t best_row) {
    return cost < best || (cost == best && row < best_row);
  }
  /// A cost above both minima can update neither: the loops offer a row
  /// only when its whole splice cost is at most this cap.
  double cap() const { return std::max(any, qualified); }
  void Offer(double cost, std::size_t row, bool qualifies) {
    if (!(cost < std::numeric_limits<double>::infinity())) return;
    if (Before(cost, row, any, any_row)) {
      any = cost;
      any_row = row;
    }
    if (qualifies && Before(cost, row, qualified, qualified_row)) {
      qualified = cost;
      qualified_row = row;
    }
  }
  void Merge(const DonorBest& other) {
    if (Before(other.any, other.any_row, any, any_row)) {
      any = other.any;
      any_row = other.any_row;
    }
    if (Before(other.qualified, other.qualified_row, qualified,
               qualified_row)) {
      qualified = other.qualified;
      qualified_row = other.qualified_row;
    }
  }
};

}  // namespace

BandSource::BandSource(const KdTree& tree, const Tuple& outlier)
    : tree_(&tree), outlier_(&outlier), q_(tree.view().arity()) {
  for (std::size_t a = 0; a < q_.size(); ++a) q_[a] = outlier[a].num();
}

BoundsEngine::BoundsEngine(const Relation& relation,
                           const DistanceEvaluator& evaluator,
                           const NeighborIndex& index,
                           const KthNeighborCache& cache,
                           DistanceConstraint constraint)
    : relation_(relation),
      evaluator_(evaluator),
      index_(index),
      cache_(cache),
      constraint_(constraint) {
  if (relation_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "BoundsEngine: relation exceeds the 32-bit band row range");
  }
  // The tree computes the unit absolute-difference metric under its own
  // norm, so it serves bands only where the evaluator does the same.
  const auto* tree = dynamic_cast<const KdTree*>(&index);
  if (tree != nullptr && tree->view().norm() == evaluator_.norm() &&
      ColumnarView::Eligible(relation_, evaluator_)) {
    tree_ = tree;
  }
}

const KdTree* BoundsEngine::TreeFor(const Tuple& outlier) const {
  return tree_ != nullptr && !tree_->SomeDistanceIsNan(outlier) ? tree_
                                                                : nullptr;
}

double BoundsEngine::GlobalLowerBound(const Tuple& outlier,
                                      BudgetGauge* gauge) const {
  // η-th nearest inlier. The outlier itself is not in r, but it still counts
  // toward its own neighbor total (Formula 4), so only η−1 inliers are
  // needed besides the tuple itself.
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return 0;
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().index_knn_queries;
  }
  PhaseScope phase(ObserverOf(gauge), TracePhase::kIndexQuery);
  std::vector<Neighbor> nn = index_.KNearest(outlier, needed);
  if (nn.size() < needed) return 0;
  double bound = nn.back().distance - constraint_.epsilon;
  return bound > 0 ? bound : 0;
}

double BoundsEngine::BandPass(const BandSource& source, const AttributeSet& x,
                              const Band* parent, bool lower_bound, Band* band,
                              BudgetGauge* gauge,
                              WorkStealingPool* nested) const {
  // Candidates are inliers with Δ(t_o[X], t[X]) ≤ ε (the shaded band in
  // Figure 3); among them Proposition 3 needs the η-th nearest in
  // full-space distance (η−1 excluding the tuple's self-count).
  const std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  const bool want_lb = lower_bound && needed > 0;
  if (gauge != nullptr && want_lb) {
    ++gauge->stats().index_queries;
    ++gauge->stats().prop3_bounds;
  }
  PhaseScope phase(ObserverOf(gauge), TracePhase::kBoundsScan);
  // Inheritance: round-to-nearest sums of non-negative terms are monotone,
  // so a row whose partial sum exceeded ε on the parent's subset exceeds it
  // on every superset, and the parent's list holds all of band(X). A NaN
  // term breaks that, so such a search walks all rows (DESIGN.md §4). Where
  // X's recurrence extends the parent's, each row resumes the parent's
  // accumulator and adds X's remaining terms alone.
  const bool inherit =
      parent != nullptr && !parent->all_rows && !source.has_nan();
  const std::size_t from = inherit ? ResumeFrom(parent->x, x) : 0;
  const KdTree* tree = source.tree_;
  const double eps = constraint_.epsilon;

  band->x = x;
  band->all_rows = x.empty() && !(0.0 > eps);
  if (band->all_rows) {
    Resize(band, 0);
    if (!want_lb) return 0;  // nothing to scan for
    if (tree != nullptr) {
      // Every row qualifies, so the bound is the (η−1)-th nearest distance:
      // a kNN query instead of a scan.
      const std::vector<Neighbor> nn =
          tree->KNearest(*source.outlier_, needed);
      if (nn.size() < needed) return kInf;
      const double bound = nn.back().distance - eps;
      return bound > 0 ? bound : 0;
    }
  }
  // Every loop below writes each row it scans into the next free slot and
  // advances past it only when the row is kept, so no loop branches on a
  // verdict; the heap is offered only the kept rows it would take.
  std::vector<double> heap;
  std::vector<BandChunk> parts;
  const bool completed = WithNorm(evaluator_.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    const double raw = NormPolicy<N>::Raw(eps);
    if (!inherit && tree != nullptr) {
      // From all rows on the tree: only the leaves whose boxes lie within ε
      // on X can hold a band row. A leaf's verdicts come first, then the
      // full distances of its kept rows alone (no threshold stops those
      // early).
      const TreeAttrs on_x(tree->view(), source.q_, x);
      const TreeAttrs all(tree->view(), source.q_,
                          AttributeSet::Full(evaluator_.arity()));
      InlinePoll poll{gauge};
      std::size_t k = 0;
      const bool done = tree->ForEachLeafWithinOn(
          source.q_.data(), x, eps, [&](std::size_t begin, std::size_t end) {
            if (band->rows.size() < k + (end - begin)) {
              Resize(band, k + (end - begin));
            }
            const std::size_t first = k;
            for (std::size_t pos = begin; pos < end; ++pos) {
              if (!poll()) return false;
              bool over = false;
              const double acc = Accumulate<N>(on_x, 0, pos, 0.0, raw, over);
              band->rows[k] = static_cast<std::uint32_t>(pos);
              band->acc[k] = acc;
              k += Kept<N>(acc, over, eps);
            }
            for (std::size_t i = first; i < k; ++i) {
              const double full = Distance<N>(all, band->rows[i]);
              band->full[i] = full;
              if (want_lb && Takes(heap, needed, full)) {
                KeepSmallest(&heap, needed, full);
              }
            }
            return true;
          });
      Resize(band, k);
      return FinishScan(done, gauge);
    }
    // A list walk: the parent's band, or all n rows of the cache.
    const SearchDistanceCache* dcache = source.dcache_;
    const std::size_t count = inherit ? parent->rows.size() : relation_.size();
    const std::size_t chunks = ScanChunks(nested, count);
    parts.resize(chunks > 1 ? chunks : 0);
    const bool list = !band->all_rows;
    auto walk = [&](const auto& on_x) {
      return RunScan(count, gauge, nested, [&](std::size_t begin,
                                               std::size_t end,
                                               std::size_t chunk,
                                               auto& poll) {
        Band& out = chunks > 1 ? parts[chunk].band : *band;
        std::vector<double>& kept = chunks > 1 ? parts[chunk].heap : heap;
        if (list && out.rows.size() < end - begin) Resize(&out, end - begin);
        std::size_t k = 0;
        bool go = true;
        for (std::size_t i = begin; i < end; ++i) {
          if (!poll()) {
            go = false;
            break;
          }
          const std::uint32_t row =
              inherit ? parent->rows[i] : static_cast<std::uint32_t>(i);
          bool over = false;
          const double acc =
              Accumulate<N>(on_x, from, row, from != 0 ? parent->acc[i] : 0.0,
                            raw, over);
          const double full =
              inherit ? parent->full[i] : dcache->FullDistance(row);
          const bool keep = Kept<N>(acc, over, eps);
          if (list) {
            out.rows[k] = row;
            out.acc[k] = acc;
            out.full[k] = full;
            k += keep;
          }
          if (want_lb && (keep & Takes(kept, needed, full))) {
            KeepSmallest(&kept, needed, full);
          }
        }
        if (list) Resize(&out, k);
        return go;
      });
    };
    return tree != nullptr
               ? walk(TreeAttrs(tree->view(), source.q_, x))
               : walk(CachedAttrs(*dcache, x, evaluator_.arity()));
  });
  // An abandoned pass returns the uninformative bound 0: nothing is pruned
  // on its account, and the caller unwinds via gauge->stopped().
  if (!completed) return 0;
  // Chunk-ordered concatenation keeps the rows ascending. Each chunk's heap
  // dropped only distances with `needed` smaller ones inside that chunk, so
  // the concatenated heaps still hold the global `needed` smallest, and
  // they sum below `needed` iff the band has fewer qualifiers.
  if (!parts.empty()) Resize(band, 0);
  for (BandChunk& part : parts) {
    band->rows.insert(band->rows.end(), part.band.rows.begin(),
                      part.band.rows.end());
    band->acc.insert(band->acc.end(), part.band.acc.begin(),
                     part.band.acc.end());
    band->full.insert(band->full.end(), part.band.full.begin(),
                      part.band.full.end());
    heap.insert(heap.end(), part.heap.begin(), part.heap.end());
  }
  if (!want_lb) return 0;
  if (heap.size() < needed) {
    // Fewer than η−1 inliers are reachable keeping X fixed: infeasible.
    return kInf;
  }
  // A single max-heap holds exactly the `needed` smallest, so its top is
  // the answer; concatenated chunk heaps need a selection.
  double kth = heap.front();
  if (!parts.empty()) {
    std::nth_element(heap.begin(),
                     heap.begin() + static_cast<std::ptrdiff_t>(needed - 1),
                     heap.end());
    kth = heap[needed - 1];
  }
  const double bound = kth - eps;
  return bound > 0 ? bound : 0;
}

double BoundsEngine::LowerBoundForX(const Tuple& outlier,
                                    const AttributeSet& x, BudgetGauge* gauge,
                                    const SearchDistanceCache* dcache,
                                    WorkStealingPool* nested) const {
  std::optional<SearchDistanceCache> own;
  if (dcache == nullptr) dcache = &own.emplace(relation_, evaluator_, outlier);
  Band band;
  return BandPass(*dcache, x, nullptr, /*lower_bound=*/true, &band, gauge,
                  nested);
}

std::optional<BoundsEngine::UpperBound> BoundsEngine::DonorSplice(
    const Tuple& outlier, const AttributeSet& x, const BandSource& source,
    const Band& band, BudgetGauge* gauge, WorkStealingPool* nested) const {
  const std::size_t arity = evaluator_.arity();
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().prop5_bounds;
  }
  PhaseScope phase(ObserverOf(gauge), TracePhase::kBoundsScan);

  // Two donor candidates per X:
  //  (a) the Proposition-5 qualified donor — δ_η(t) ≤ ε − Δ(t_o[X], t[X])
  //      guarantees feasibility of the splice without further checks;
  //  (b) the cheapest splice donor regardless of qualification, validated
  //      by an exact neighbor count. (a)'s sufficient condition is very
  //      conservative when δ_η runs close to ε (chains, sparse clusters,
  //      high dimension), where (b) still finds cheap feasible splices.
  const KdTree* tree = source.tree_;
  const AttributeSet splice_attrs = x.ComplementIn(arity);
  const double eps = constraint_.epsilon;
  DonorBest best;
  std::vector<DonorBest> parts;
  // Each row's whole splice cost is summed and compared with the cap once:
  // a cost above it can update neither minimum, so the minima are those of
  // a loop that stopped each sum at the cap.
  const bool completed = WithNorm(evaluator_.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    if (band.all_rows && tree != nullptr) {
      // X = ∅ on the tree: both donors are nearest rows by full distance,
      // so a nearest-first walk finds them, skipping every box farther than
      // both minima.
      const TreeAttrs all(tree->view(), source.q_, splice_attrs);
      InlinePoll poll{gauge};
      return FinishScan(
          tree->ForEachLeafNearest(
              source.q_.data(), [&] { return best.cap(); },
              [&](std::size_t begin, std::size_t end) {
                for (std::size_t pos = begin; pos < end; ++pos) {
                  if (!poll()) return false;
                  const double cost = Distance<N>(all, pos);
                  if (!(cost <= best.cap())) continue;
                  const std::size_t row = tree->row_at(pos);
                  best.Offer(cost, row, cache_.delta(row) <= eps);
                }
                return true;
              }),
          gauge);
    }
    const std::size_t count =
        band.all_rows ? relation_.size() : band.rows.size();
    const std::size_t chunks = ScanChunks(nested, count);
    parts.resize(chunks > 1 ? chunks : 0);
    auto scan = [&](const auto& splice) {
      return RunScan(count, gauge, nested, [&](std::size_t begin,
                                               std::size_t end,
                                               std::size_t chunk,
                                               auto& poll) {
        DonorBest& local = chunks > 1 ? parts[chunk] : best;
        for (std::size_t i = begin; i < end; ++i) {
          if (!poll()) return false;
          const std::size_t at =
              band.all_rows ? i : static_cast<std::size_t>(band.rows[i]);
          const double cost = Distance<N>(splice, at);
          if (!(cost <= local.cap())) continue;
          const std::size_t row = tree != nullptr ? tree->row_at(at) : at;
          const double dx =
              band.all_rows ? 0.0 : NormPolicy<N>::Total(band.acc[i]);
          local.Offer(cost, row, cache_.delta(row) <= eps - dx);
        }
        return true;
      });
    };
    return tree != nullptr
               ? scan(TreeAttrs(tree->view(), source.q_, splice_attrs))
               : scan(CachedAttrs(*source.dcache_, splice_attrs, arity));
  });
  // Each chunk offered every row at or below its own cap, so its minima are
  // exact, and merging them by (cost, row) gives the minima of one walk
  // over the whole list.
  for (const DonorBest& part : parts) best.Merge(part);
  // No partial donor scan may produce a bound: abandoning returns "no upper
  // bound" so the incumbent is never replaced by a half-searched splice
  // (anytime-soundness — see DESIGN.md).
  if (!completed) return std::nullopt;
  if (best.any_row == DonorBest::kNone) return std::nullopt;

  auto splice = [&](std::size_t row) {
    UpperBound ub;
    ub.donor_row = row;
    ub.adjusted = outlier;
    const Tuple& donor = relation_[row];
    for (std::size_t a = 0; a < arity; ++a) {
      if (!x.contains(a)) ub.adjusted[a] = donor[a];
    }
    // The adjustment cost equals Δ(t_o[R\X], t_2[R\X]) because the X values
    // are untouched; recompute via the evaluator for exactness in any norm.
    ub.cost = evaluator_.Distance(outlier, ub.adjusted);
    return ub;
  };

  // Prefer the strictly cheaper unqualified splice when it verifies.
  if (best.any < best.qualified) {
    UpperBound candidate = splice(best.any_row);
    if (IsFeasible(candidate.adjusted, gauge)) return candidate;
  }
  if (best.qualified_row == DonorBest::kNone) return std::nullopt;
  return splice(best.qualified_row);
}

std::optional<BoundsEngine::UpperBound> BoundsEngine::UpperBoundForX(
    const Tuple& outlier, const AttributeSet& x, BudgetGauge* gauge,
    const SearchDistanceCache* dcache, WorkStealingPool* nested) const {
  std::optional<SearchDistanceCache> own;
  if (dcache == nullptr) dcache = &own.emplace(relation_, evaluator_, outlier);
  Band band;
  BandPass(*dcache, x, nullptr, /*lower_bound=*/false, &band, gauge, nested);
  if (gauge != nullptr && gauge->stopped()) return std::nullopt;
  return DonorSplice(outlier, x, *dcache, band, gauge, nested);
}

bool CountFeasible(const NeighborIndex& index,
                   const DistanceConstraint& constraint, const Tuple& candidate,
                   BudgetGauge* gauge) {
  const std::size_t needed = constraint.eta > 0 ? constraint.eta - 1 : 0;
  if (needed == 0) return true;
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().feasibility_checks;
    ++gauge->stats().index_count_queries;
  }
  PhaseScope phase(ObserverOf(gauge), TracePhase::kIndexQuery);
  return index.CountWithin(candidate, constraint.epsilon, needed) >= needed;
}

}  // namespace disc
