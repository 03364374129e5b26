#include "core/bounds.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <stdexcept>

#include "common/thread_pool.h"
#include "core/observation.h"
#include "distance/lp_norm.h"

namespace disc {

namespace {

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

/// Runs the grain-pure chunk body `body(begin, end, chunk, poll)` over
/// list positions [0, count): inline as chunk 0, or as ScanChunks() chunks
/// on `nested`. The body returns false once its poll says stop. Returns
/// false when the scan was abandoned, after folding the stop into the gauge
/// and the decision log; the caller then returns its safe value.
template <class Body>
bool RunScan(std::size_t count, BudgetGauge* gauge, WorkStealingPool* nested,
             Body&& body) {
  bool completed = true;
  if (ScanChunks(nested, count) == 1) {
    InlinePoll poll{gauge};
    completed = body(std::size_t{0}, count, std::size_t{0}, poll);
  } else {
    std::atomic<bool> aborted{false};
    nested->ParallelFor(
        0, count, kNestedScanGrain,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          ChunkPoll poll{gauge, &aborted};
          body(begin, end, chunk, poll);
        });
    completed = !aborted.load(std::memory_order_relaxed);
    if (!completed) gauge->RecordHardStop();
  }
  // The decision log counts abandoned scans: their safe values flag the
  // searches whose bound-quality data is polluted by truncation.
  SearchObserver* observer = ObserverOf(gauge);
  if (!completed && observer != nullptr) ++observer->abandoned_scans;
  return completed;
}

/// The memoized attribute rows of a SearchDistanceCache for one subset X,
/// resolved once per pass so the row loops below touch flat arrays with no
/// per-row subset iteration or lazy-fill checks. Resolve on the calling
/// thread: AttributeRow's lazy fill mutates under const and must never run
/// inside a chunk.
struct SubsetRows {
  std::array<const double*, AttributeSet::kCapacity> rows;
  std::size_t count = 0;
};

SubsetRows ResolveSubsetRows(const SearchDistanceCache& dcache,
                             const AttributeSet& x, std::size_t arity) {
  SubsetRows s;
  for (std::size_t a = 0; a < arity; ++a) {
    if (x.contains(a)) s.rows[s.count++] = dcache.attribute_row(a);
  }
  return s;
}

/// Subset distance with early exit from the hoisted rows — the same values
/// accumulated in the same ascending-attribute order with the same per-add
/// Exceeds check as DistanceEvaluator::DistanceOnWithin, so verdicts and
/// accepted totals are bit-identical.
inline double SubsetDistanceWithin(const SubsetRows& s, LpNorm norm,
                                   std::size_t row, double threshold) {
  LpAccumulator acc(norm);
  for (std::size_t j = 0; j < s.count; ++j) {
    acc.Add(s.rows[j][row]);
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
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

/// One parallel chunk's share of a band pass.
struct BandChunk {
  BoundsEngine::Band band;
  std::vector<double> heap;
};

/// Running Proposition-5 donor minima of one chunk.
struct DonorBest {
  double qualified = std::numeric_limits<double>::infinity();
  std::size_t qualified_row = static_cast<std::size_t>(-1);
  double any = std::numeric_limits<double>::infinity();
  std::size_t any_row = static_cast<std::size_t>(-1);
};

}  // namespace

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

double BoundsEngine::BandPass(const SearchDistanceCache& dcache,
                              const AttributeSet& x, const Band* parent,
                              bool lower_bound, Band* band, BudgetGauge* gauge,
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
  const SubsetRows x_rows = ResolveSubsetRows(dcache, x, evaluator_.arity());
  // Inheritance: round-to-nearest sums of non-negative terms are monotone,
  // so a row whose partial sum exceeded ε on the parent's subset exceeds it
  // on every superset, and the parent's list holds all of band(X). A NaN
  // term breaks that, so such a search walks all rows (DESIGN.md §4).
  const std::uint32_t* source =
      parent != nullptr && !parent->all_rows && !dcache.has_nan()
          ? parent->rows.data()
          : nullptr;
  const std::size_t count =
      source != nullptr ? parent->rows.size() : relation_.size();
  const LpNorm norm = evaluator_.norm();
  const double eps = constraint_.epsilon;

  band->rows.clear();
  band->dx.clear();
  band->all_rows = x.empty() && !(0.0 > eps);
  if (band->all_rows && !want_lb) return 0;  // nothing to scan for
  std::vector<double> heap;
  const std::size_t chunks = ScanChunks(nested, count);
  std::vector<BandChunk> parts(chunks > 1 ? chunks : 0);
  // Band checks pass ε as the early-exit threshold so they stop at the
  // first overshooting attribute; the verdict is unchanged.
  auto body = [&](std::size_t begin, std::size_t end, std::size_t chunk,
                  auto& poll) {
    Band& out = chunks > 1 ? parts[chunk].band : *band;
    std::vector<double>& kept = chunks > 1 ? parts[chunk].heap : heap;
    for (std::size_t i = begin; i < end; ++i) {
      if (!poll()) return false;
      const std::uint32_t row =
          source != nullptr ? source[i] : static_cast<std::uint32_t>(i);
      const double dx = SubsetDistanceWithin(x_rows, norm, row, eps);
      if (dx > eps) continue;
      if (!band->all_rows) {
        out.rows.push_back(row);
        out.dx.push_back(dx);
      }
      if (want_lb) KeepSmallest(&kept, needed, dcache.FullDistance(row));
    }
    return true;
  };
  // An abandoned pass returns the uninformative bound 0: nothing is pruned
  // on its account, and the caller unwinds via gauge->stopped().
  if (!RunScan(count, gauge, nested, body)) return 0;
  // Chunk-ordered concatenation keeps the rows ascending. Each chunk's heap
  // dropped only distances with `needed` smaller ones inside that chunk, so
  // the concatenated heaps still hold the global `needed` smallest, and
  // they sum below `needed` iff the band has fewer qualifiers.
  for (BandChunk& part : parts) {
    band->rows.insert(band->rows.end(), part.band.rows.begin(),
                      part.band.rows.end());
    band->dx.insert(band->dx.end(), part.band.dx.begin(), part.band.dx.end());
    heap.insert(heap.end(), part.heap.begin(), part.heap.end());
  }
  if (!want_lb) return 0;
  if (heap.size() < needed) {
    // Fewer than η−1 inliers are reachable keeping X fixed: infeasible.
    return std::numeric_limits<double>::infinity();
  }
  // A single chunk's max-heap holds exactly the `needed` smallest, so its
  // top is the answer; concatenated chunk heaps need a selection.
  double kth = heap.front();
  if (chunks > 1) {
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
    const Tuple& outlier, const AttributeSet& x,
    const SearchDistanceCache& dcache, const Band& band, BudgetGauge* gauge,
    WorkStealingPool* nested) const {
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
  const SubsetRows splice_rows =
      ResolveSubsetRows(dcache, x.ComplementIn(arity), arity);
  const LpNorm norm = evaluator_.norm();
  const double eps = constraint_.epsilon;
  const std::size_t count =
      band.all_rows ? relation_.size() : band.rows.size();
  const std::size_t chunks = ScanChunks(nested, count);
  DonorBest best;
  std::vector<DonorBest> parts(chunks > 1 ? chunks : 0);
  auto body = [&](std::size_t begin, std::size_t end, std::size_t chunk,
                  auto& poll) {
    DonorBest& local = chunks > 1 ? parts[chunk] : best;
    for (std::size_t i = begin; i < end; ++i) {
      if (!poll()) return false;
      const std::uint32_t row =
          band.all_rows ? static_cast<std::uint32_t>(i) : band.rows[i];
      const double dx = band.all_rows ? 0.0 : band.dx[i];
      // A splice cost beyond both incumbents can update neither, so the
      // larger incumbent is a sound early-exit threshold (accepted values
      // are exact, rejected ones come back as +infinity and fail both `<`).
      const double cost_cap = std::max(local.any, local.qualified);
      const double cost =
          SubsetDistanceWithin(splice_rows, norm, row, cost_cap);
      if (cost < local.any) {
        local.any = cost;
        local.any_row = row;
      }
      if (cache_.delta(row) <= eps - dx && cost < local.qualified) {
        local.qualified = cost;
        local.qualified_row = row;
      }
    }
    return true;
  };
  // No partial donor scan may produce a bound: abandoning returns "no upper
  // bound" so the incumbent is never replaced by a half-searched splice
  // (anytime-soundness — see DESIGN.md).
  if (!RunScan(count, gauge, nested, body)) return std::nullopt;
  // Chunk minima are exact (a cost below the chunk-local cap never trips
  // the early exit); merging in ascending chunk order with strict < picks
  // the globally minimal cost at its lowest row — the first minimum of one
  // sequential walk.
  for (const DonorBest& part : parts) {
    if (part.any < best.any) {
      best.any = part.any;
      best.any_row = part.any_row;
    }
    if (part.qualified < best.qualified) {
      best.qualified = part.qualified;
      best.qualified_row = part.qualified_row;
    }
  }
  if (best.any_row == static_cast<std::size_t>(-1)) return std::nullopt;

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
  if (best.qualified_row == static_cast<std::size_t>(-1)) return std::nullopt;
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
