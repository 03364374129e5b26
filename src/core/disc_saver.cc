#include "core/disc_saver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/save_journal.h"
#include "index/index_factory.h"
#include "obs/explain.h"
#include "obs/progress.h"

namespace disc {

namespace {

/// Record for an outlier whose search never ran (batch drained-and-skipped
/// after the deadline passed or cancellation fired): untouched tuple,
/// nothing visited, termination says why.
SaveResult SkippedResult(const Tuple& outlier, SaveTermination why) {
  SaveResult result;
  result.feasible = false;
  result.termination = why;
  result.adjusted = outlier;
  return result;
}

/// Record for a search aborted by an injected/transient fault before any
/// real work: untouched tuple, kFault termination (retry-eligible), wall
/// time covering only the aborted setup.
SaveResult FaultedResult(const Tuple& outlier, std::uint64_t start_ns) {
  SaveResult result = SkippedResult(outlier, SaveTermination::kFault);
  result.stats.start_ns = start_ns;
  result.stats.wall_nanos = TraceNowNs() - start_ns;
  return result;
}

}  // namespace

Status ValidateSaveArity(std::size_t arity) {
  if (arity > kMaxSaveableAttributes) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(arity) +
        " attributes; outlier saving supports at most " +
        std::to_string(kMaxSaveableAttributes) +
        " (AttributeSet bitmask capacity)");
  }
  return Status::OK();
}

AttributeSet ChangedAttributes(const Tuple& original, const Tuple& adjusted) {
  AttributeSet changed;
  for (std::size_t a = 0;
       a < original.size() && a < kMaxSaveableAttributes; ++a) {
    if (!SameValue(original[a], adjusted[a])) changed.insert(a);
  }
  return changed;
}

bool SameValue(const Value& a, const Value& b) {
  return a == b || (a.is_numeric() && b.is_numeric() && std::isnan(a.num()) &&
                    std::isnan(b.num()));
}

DiscSaver::DiscSaver(const Relation& inliers,
                     const DistanceEvaluator& evaluator,
                     DistanceConstraint constraint, bool enable_fast_path)
    : inliers_(inliers), evaluator_(evaluator), constraint_(constraint) {
  index_ = MakeNeighborIndex(inliers_, evaluator_, constraint_.epsilon);
  cache_ = std::make_unique<KthNeighborCache>(inliers_, *index_,
                                              constraint_.eta);
  bounds_ = std::make_unique<BoundsEngine>(inliers_, evaluator_, *index_,
                                           *cache_, constraint_);
  if (enable_fast_path) {
    columnar_ = ColumnarView::Build(inliers_, evaluator_);
  }
}

struct DiscSaver::SearchState {
  double best_cost = std::numeric_limits<double>::infinity();
  Tuple best_adjusted;
  bool found = false;
  std::unordered_set<std::uint64_t> visited;
  std::size_t pruned = 0;
  BudgetGauge* gauge = nullptr;
  /// Per-search distance cache (full-space distances to every inlier plus
  /// memoized per-attribute rows), shared by every band pass of this search.
  const SearchDistanceCache* dcache = nullptr;
  /// Pool serving the chunked passes of this search (null = inline).
  WorkStealingPool* nested = nullptr;
  /// Band of the node at each recursion depth: a node's children read its
  /// slot while writing their own, and siblings reuse the same slot.
  std::vector<BoundsEngine::Band> bands;
  /// True when dominance pruning applies: lower-bound pruning is on and no
  /// full-space distance is NaN (DESIGN.md §4).
  bool dominance = false;
  /// Antichain of the minimal sets cut so far by the lower bound (finite or
  /// infeasible), as AttributeSet bits.
  std::vector<std::uint64_t> cut;
  /// The X = ∅ seed splice, which the unrestricted root reuses instead of
  /// repeating its donor reduction (null in κ-restricted mode).
  const std::optional<BoundsEngine::UpperBound>* root_splice = nullptr;

  /// True when X contains a set already cut. Its band is a subset of that
  /// set's band, so its lower bound is no smaller and the incumbent has
  /// only dropped since: the search would cut X as well.
  bool Dominated(AttributeSet x) const {
    return std::any_of(cut.begin(), cut.end(), [&](std::uint64_t s) {
      return (s & ~x.bits()) == 0;
    });
  }

  /// Adds a freshly cut X, dropping the supersets it now dominates. X never
  /// contains a member: such an X is skipped before it is scanned.
  void AddCut(AttributeSet x) {
    std::erase_if(cut, [&](std::uint64_t s) { return (x.bits() & ~s) == 0; });
    cut.push_back(x.bits());
  }
};

void DiscSaver::Explore(const Tuple& outlier, AttributeSet x,
                        const BoundsEngine::Band* parent, std::size_t depth,
                        const SaveOptions& options,
                        SearchState* state) const {
  BudgetGauge* gauge = state->gauge;
  if (gauge->stopped()) return;
  // Decision capture (DESIGN.md §14): exactly one event per visited node,
  // recording which rule decided its fate and the bounds behind the
  // decision. `node` accumulates as the node is evaluated; every exit path
  // below records it. Null when explain is detached — each site is then a
  // single pointer check and the search is untouched.
  SearchExplain* ex = gauge->explain();
  ExplainEvent node;
  node.x_bits = x.bits();
  node.incumbent = state->best_cost;
  if (!state->visited.insert(x.bits()).second) {
    if (ex != nullptr) {
      node.action = ExplainAction::kMemoHit;
      ex->Record(node);
    }
    return;  // this X was already processed (§3.3.1)
  }
  // Node expansion: hit the `search.node` fault site, then check
  // cancellation, deadline, visited-set and query budgets. On any trip the
  // incumbent stands and the whole search unwinds (anytime contract).
  if (!gauge->OnNodeExpanded(state->visited.size())) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneBudget;
      ex->Record(node);
    }
    return;
  }

  // Dominance: a superset of a cut set is cut without a scan. It stays
  // memo-visited, so the node counters and fault schedules do not move.
  if (state->dominance && state->Dominated(x)) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneDominated;
      ex->Record(node);
    }
    return;
  }

  // One band pass: X's band, from the parent's, plus — with pruning — the
  // lower bound (Algorithm 1 lines 1-3, Proposition 3). Any adjustment that
  // keeps X fixed costs at least LB(X); supersets of X only cost more, so
  // the whole subtree is cut when LB(X) >= incumbent.
  BoundsEngine::Band& band = state->bands[depth];
  const double lb =
      bounds_->BandPass(*state->dcache, x, parent,
                        options.use_lower_bound_pruning, &band, gauge,
                        state->nested);
  if (gauge->stopped()) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneBudget;
      ex->Record(node);
    }
    return;
  }
  if (options.use_lower_bound_pruning) {
    node.lb = lb;
    if (lb >= state->best_cost) {
      ++state->pruned;
      if (state->dominance) state->AddCut(x);
      if (ex != nullptr) {
        node.action = std::isinf(lb) ? ExplainAction::kInfeasible
                                     : ExplainAction::kPruneLb;
        ex->Record(node);
      }
      return;
    }
  }

  // Upper bound (lines 4-9, Proposition 5): the spliced tuple t_o^u is a
  // feasible adjustment; adopt it when it beats the incumbent. An abandoned
  // donor scan yields no bound, so a stopped gauge can never sneak a
  // half-searched splice into the incumbent. The unrestricted root's splice
  // is the X = ∅ seed, which already is the incumbent.
  std::optional<BoundsEngine::UpperBound> ub =
      x.empty() && state->root_splice != nullptr
          ? *state->root_splice
          : bounds_->DonorSplice(outlier, x, *state->dcache, band, gauge,
                                 state->nested);
  if (gauge->stopped()) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneBudget;
      ex->Record(node);
    }
    return;
  }
  if (ub.has_value()) {
    node.ub = ub->cost;
    node.donor_row = ub->donor_row;
  }
  if (ub.has_value() && ub->cost < state->best_cost) {
    state->best_cost = ub->cost;
    state->best_adjusted = ub->adjusted;
    state->found = true;
    if (ex != nullptr) {
      node.action = ExplainAction::kIncumbentUpdate;
      node.incumbent = state->best_cost;
      ex->Record(node);
    }
  } else if (ex != nullptr) {
    node.action = ExplainAction::kExpand;
    ex->Record(node);
  }

  // Recurse (lines 10-11): grow the unadjusted set.
  const std::size_t arity = evaluator_.arity();
  for (std::size_t a = 0; a < arity; ++a) {
    if (x.contains(a)) continue;
    Explore(outlier, x.With(a), &band, depth + 1, options, state);
    if (gauge->stopped()) return;
  }
}

void DiscSaver::RevertRefine(const Tuple& outlier, Tuple* adjusted,
                             BudgetGauge* gauge) const {
  // Greedily restore adjusted attributes to the original values, cheapest
  // contribution first, as long as the result keeps >= eta epsilon-
  // neighbors. Each successful revert strictly reduces the adjustment cost.
  // Every mutation goes through a fully-validated trial, so stopping
  // between iterations (deadline/cancellation) leaves a feasible tuple.
  const std::size_t arity = evaluator_.arity();
  bool changed = true;
  while (changed && gauge->ContinueRefinement()) {
    changed = false;
    // Candidate attributes ordered by their per-attribute contribution.
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t a = 0; a < arity; ++a) {
      if (SameValue((*adjusted)[a], outlier[a])) continue;
      order.emplace_back(
          evaluator_.AttributeDistance(a, outlier[a], (*adjusted)[a]), a);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [contribution, a] : order) {
      Tuple trial = *adjusted;
      trial[a] = outlier[a];
      if (bounds_->IsFeasible(trial, gauge)) {
        *adjusted = std::move(trial);
        ++gauge->stats().revert_refines;
        if (SearchExplain* ex = gauge->explain()) {
          ExplainEvent event;
          event.action = ExplainAction::kRevertRefine;
          event.x_bits = AttributeSet().With(a).bits();
          event.ub = evaluator_.Distance(outlier, *adjusted);
          ex->Record(event);
        }
        changed = true;
        break;  // re-rank contributions after each successful revert
      }
    }
  }
}

SaveResult DiscSaver::Save(const Tuple& outlier,
                           const SaveOptions& options) const {
  return SaveImpl(outlier, options, Deadline::Infinite(), CancellationToken());
}

double DiscSaver::EstimateSearchCost(const Tuple& outlier) const {
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return 0;
  // `index.query` fault site: a failed estimate query degrades only the
  // schedule (the outlier is treated as maximally hard and dispatched
  // first), never the search results — estimates run outside the gauge.
  if (Status s = DISC_FAULT_POINT("index.query"); !s.ok()) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<Neighbor> nn = index_->KNearest(outlier, needed);
  if (nn.size() < needed) {
    // Fewer than η−1 inliers in total: the search degenerates anyway;
    // schedule it first so its (cheap) infeasibility verdict lands early.
    return std::numeric_limits<double>::infinity();
  }
  return nn.back().distance;
}

SaveResult DiscSaver::SaveImpl(const Tuple& outlier, const SaveOptions& options,
                               Deadline task_deadline,
                               const CancellationToken& batch_cancellation,
                               WorkStealingPool* nested, SearchTrace* strace,
                               SearchExplain* sexplain) const {
  const std::uint64_t start_ns = TraceNowNs();
  // `search.start` fault site: an error here aborts the search before any
  // work, as an index handle or arena acquisition would.
  if (Status s = DISC_FAULT_POINT("search.start"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const std::size_t arity = evaluator_.arity();
  const bool restricted = options.kappa != 0 && options.kappa < arity;
  BudgetGauge gauge(&options.budget, task_deadline, batch_cancellation);
  // Context propagation: the trace and explain contexts ride on the gauge,
  // which every bound computation and index query of this search already
  // receives.
  gauge.set_trace(strace);
  gauge.set_explain(sexplain);
  SearchState state;
  state.gauge = &gauge;
  state.nested = nested;

  // Per-search distance cache: Δ(t_o, t) to every inlier is invariant
  // across all B&B nodes of this search, so compute the vector once here
  // (the very first band pass would have paid that cost anyway) and let
  // every band pass serve from it. Backed by the columnar kernels when the
  // relation qualifies, the scalar evaluator otherwise; bit-identical
  // either way. `dcache.fill` fault site: the eager full-space fill is the
  // search's single biggest allocation, so a simulated allocation failure
  // lands here and aborts the search as retryable.
  if (Status s = DISC_FAULT_POINT("dcache.fill"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const SearchDistanceCache dcache(inliers_, evaluator_, outlier,
                                   columnar_.get(), &gauge.stats(), nested,
                                   strace);
  state.dcache = &dcache;
  state.bands.resize(arity + 1);
  state.dominance = options.use_lower_bound_pruning && !dcache.has_nan();

  // The X = emptyset upper bound (Lemma 4 flavour): nearest substitution-
  // style donor. In unrestricted mode it seeds the incumbent directly. In
  // kappa-restricted mode it is kept OUT of the search incumbent — the
  // incumbent there tracks the best kappa-qualified splice (every visited X
  // has |X| >= m − kappa, so its splice changes <= kappa attributes), and
  // letting the often-cheaper substitution into it would both over-prune
  // and mask the low-attribute adjustment the caller asked for. The
  // substitution is reconsidered after revert refinement below.
  const std::optional<BoundsEngine::UpperBound> global_seed =
      bounds_->UpperBoundForX(outlier, AttributeSet(), &gauge, &dcache,
                              nested);
  if (!restricted && global_seed.has_value()) {
    state.best_cost = global_seed->cost;
    state.best_adjusted = global_seed->adjusted;
    state.found = true;
    if (sexplain != nullptr) {
      // The seed is an incumbent adoption but not a visited node; `seed`
      // keeps it out of the node-count cross-checks (obs/explain.h).
      ExplainEvent event;
      event.action = ExplainAction::kIncumbentUpdate;
      event.seed = true;
      event.ub = global_seed->cost;
      event.incumbent = global_seed->cost;
      event.donor_row = global_seed->donor_row;
      sexplain->Record(event);
    }
  }

  if (!restricted) {
    // Unrestricted: Algorithm 1 from X = ∅.
    state.root_splice = &global_seed;
    Explore(outlier, AttributeSet(), nullptr, 0, options, &state);
  } else {
    // κ-restricted (§3.3.3): only adjustments touching <= κ attributes are
    // trusted, i.e. only X with |X| >= m − κ. Seed the recursion with every
    // X of size exactly m − κ; the shared visited set dedups overlaps.
    const std::size_t base_size = arity - options.kappa;
    // Enumerate subsets of size base_size with a combination walker.
    std::vector<std::size_t> combo(base_size);
    for (std::size_t i = 0; i < base_size; ++i) combo[i] = i;
    auto next_combination = [&]() {
      // Advance combo to the next size-base_size subset of {0..arity-1};
      // returns false when exhausted.
      std::size_t i = base_size;
      while (i > 0) {
        --i;
        if (combo[i] != i + arity - base_size) {
          ++combo[i];
          for (std::size_t j = i + 1; j < base_size; ++j) {
            combo[j] = combo[j - 1] + 1;
          }
          return true;
        }
      }
      return false;
    };
    do {
      AttributeSet x;
      for (std::size_t idx : combo) x.insert(idx);
      Explore(outlier, x, nullptr, 0, options, &state);
      if (gauge.stopped()) break;
    } while (base_size > 0 && next_combination());
  }

  SaveResult result;
  result.lower_bound = bounds_->GlobalLowerBound(outlier, &gauge);
  result.visited_sets = state.visited.size();
  result.pruned_sets = state.pruned;

  // Fills the termination/accounting fields once the verdict fields
  // (feasible, kappa_exceeded) are final.
  auto finalize = [&](SaveResult* r) {
    r->index_queries = gauge.query_count();
    r->stats = gauge.stats();
    r->stats.visited_sets = state.visited.size();
    r->stats.lb_prunes = state.pruned;
    r->stats.start_ns = start_ns;
    r->stats.wall_nanos = TraceNowNs() - start_ns;
    if (gauge.stopped()) {
      r->termination = gauge.reason();
    } else if (r->feasible || r->kappa_exceeded) {
      r->termination = SaveTermination::kCompleted;
    } else {
      r->termination = SaveTermination::kInfeasible;
    }
  };

  // Collect candidates: the search incumbent (kappa-qualified when
  // restricted) and, in restricted mode, the reverted substitution seed —
  // kept only if the revert brought it within the kappa budget. This whole
  // section is the `verdict` wall phase (RevertRefine's feasibility checks
  // pause it for their index_query time).
  {
    PhaseScope verdict_phase(strace, TracePhase::kVerdict);
    bool have = false;
    Tuple best;
    double best_cost = std::numeric_limits<double>::infinity();
    bool kappa_blocked = false;

    if (state.found) {
      Tuple adjusted = state.best_adjusted;
      if (options.use_revert_refinement) {
        RevertRefine(outlier, &adjusted, &gauge);
      }
      best = adjusted;
      best_cost = evaluator_.Distance(outlier, best);
      have = true;
    }
    if (restricted && global_seed.has_value()) {
      Tuple adjusted = global_seed->adjusted;
      if (options.use_revert_refinement) {
        RevertRefine(outlier, &adjusted, &gauge);
      }
      AttributeSet changed = ChangedAttributes(outlier, adjusted);
      double cost = evaluator_.Distance(outlier, adjusted);
      if (changed.size() <= options.kappa) {
        if (!have || cost < best_cost) {
          best = adjusted;
          best_cost = cost;
          have = true;
        }
      } else if (!have) {
        // A feasible adjustment exists but needs more attributes than the
        // caller trusts — the signature of a natural outlier under §1.2.
        kappa_blocked = true;
      }
    }

    if (have) {
      AttributeSet changed = ChangedAttributes(outlier, best);
      if (restricted && changed.size() > options.kappa) {
        result.feasible = false;
        result.kappa_exceeded = true;
        result.adjusted = outlier;
      } else {
        result.feasible = true;
        result.adjusted = best;
        result.cost = best_cost;
        result.adjusted_attributes = changed;
      }
    } else {
      result.feasible = false;
      result.kappa_exceeded = kappa_blocked;
      result.adjusted = outlier;
    }
  }
  finalize(&result);
  if (strace != nullptr) {
    // Emit the aggregated per-phase spans (parented under the search span)
    // from the owning thread and fold the totals into the profiler.
    strace->FlushPhaseSpans(SpanSlotForWorker(
        WorkStealingPool::CurrentWorkerIndex(),
        strace->collector != nullptr ? strace->collector->slots() : 1));
  }
  return result;
}

std::vector<SaveResult> DiscSaver::SaveAll(const std::vector<Tuple>& outliers,
                                           const SaveOptions& options,
                                           WorkStealingPool* pool,
                                           const BatchBudget& batch,
                                           TraceSink* trace,
                                           const BatchRecovery& recovery,
                                           ExplainSink* explain) const {
  const std::size_t n = outliers.size();
  std::vector<SaveResult> results(n);
  if (n == 0) return results;

  // Resume: restore journaled results up front. Restored ordinals never
  // touch the pool — no estimate query, no search, no trace span — which
  // is what keeps the merged batch bit-identical to an uninterrupted run
  // (the journal stored the exact bits the original search produced).
  std::vector<char> restored(n, 0);
  std::size_t restored_count = 0;
  if (recovery.resume != nullptr) {
    for (const SaveJournalEntry& entry : recovery.resume->entries) {
      if (entry.ordinal >= n) continue;
      results[entry.ordinal] = entry.result;
      if (restored[entry.ordinal] == 0) ++restored_count;
      restored[entry.ordinal] = 1;
    }
  }
  const std::size_t pending = n - restored_count;

  const bool parallel = pool != nullptr && pool->size() > 1 && pending > 1;
  const std::size_t workers =
      parallel ? std::min<std::size_t>(pool->size(), pending) : 1;
  WorkStealingPool* nested = parallel ? pool : nullptr;

  // Hierarchical tracing (DESIGN.md §13). Span buffers exist only when a
  // sink or the live recorder wants spans; the wall-phase profiler rides
  // along when attached. All ids derive from (batch seed, input ordinal),
  // never from time or scheduling, so the span *set* for the same work is
  // identical at every thread count (pool_chunk/estimate spans excepted —
  // they exist only where the parallel paths engage). When everything is
  // detached every per-search hook reduces to a null check.
  TraceRecorder* recorder = GlobalTraceRecorder();
  WallPhaseProfiler* profiler = GlobalWallProfiler();
  const bool span_tracing = trace != nullptr || recorder != nullptr;
  // Decision-log capture (DESIGN.md §14): same per-worker-buffer discipline
  // as the span collector, engaged by an explicit sink or the live
  // /explainz recorder. Explain-only runs still derive trace ids so logs,
  // spans and exemplars stay joinable on one identity.
  ExplainRecorder* erecorder = GlobalExplainRecorder();
  const bool explaining = explain != nullptr || erecorder != nullptr;
  const bool derive_ids = span_tracing || explaining;
  std::optional<SpanCollector> collector;
  std::optional<ExplainCollector> ecollector;
  std::uint64_t batch_seed = 0;
  if (derive_ids) batch_seed = NextTraceBatchSeed();
  if (span_tracing) collector.emplace((parallel ? pool->size() : 0) + 1);
  if (explaining) ecollector.emplace((parallel ? pool->size() : 0) + 1);

  // Live progress: registered once per batch when a global registry is
  // attached, written once per outlier from whichever thread finishes it.
  // A null registry costs one acquire load here and nothing per outlier.
  std::shared_ptr<BatchProgressTracker> progress;
  if (ProgressRegistry* registry = GlobalProgress()) {
    progress = registry->StartBatch("save_all", n, batch.deadline);
    for (std::size_t i = 0; i < n; ++i) {
      if (restored[i] != 0) progress->RecordResumed(results[i].termination);
    }
  }

  // Fair sub-deadlines: each task, when it *starts*, takes the remaining
  // batch wall clock × worker parallelism ÷ outliers left. Early tasks
  // that finish under their slice donate the unspent time to later ones
  // (the remaining clock only shrinks by what was actually used); a task
  // that would start past the deadline is drained-and-skipped.
  std::atomic<std::size_t> remaining{pending};

  auto task_slice = [&]() -> Deadline {
    Deadline task_deadline = batch.deadline;
    if (!batch.deadline.is_infinite()) {
      const std::size_t left = std::max<std::size_t>(
          std::size_t{1}, remaining.load(std::memory_order_relaxed));
      const auto rem = batch.deadline.remaining();
      // Slice = rem × min(workers, left) ÷ left, with a clamp that skips
      // the multiply for absurdly long deadlines (overflow safety).
      auto slice = rem;
      if (rem < std::chrono::hours(1)) {
        const auto par =
            static_cast<std::int64_t>(std::min<std::size_t>(workers, left));
        slice = rem * par / static_cast<std::int64_t>(left);
      }
      task_deadline = Deadline::Min(batch.deadline, Deadline::After(slice));
    }
    if (batch.per_outlier_limit.count() > 0) {
      task_deadline = Deadline::Min(task_deadline,
                                    Deadline::After(batch.per_outlier_limit));
    }
    return task_deadline;
  };

  auto run_one = [&](const Tuple& outlier, std::size_t ordinal) -> SaveResult {
    // Derived trace identity of this save; zero when both spans and explain
    // are off.
    const std::uint64_t trace_id =
        derive_ids ? DeriveTraceId(batch_seed, ordinal) : 0;
    const std::uint64_t root_span =
        span_tracing ? DeriveSpanId(trace_id, TraceSpanKind::kRoot, 0) : 0;
    std::uint64_t search_span =
        span_tracing ? DeriveSpanId(root_span, TraceSpanKind::kSearch, 0) : 0;
    SaveResult result;
    if (batch.cancellation.cancelled()) {
      remaining.fetch_sub(1, std::memory_order_relaxed);
      result = SkippedResult(outlier, SaveTermination::kCancelled);
    } else if (batch.deadline.expired()) {
      remaining.fetch_sub(1, std::memory_order_relaxed);
      result = SkippedResult(outlier, SaveTermination::kDeadline);
    } else {
      const int active_slot =
          recorder != nullptr
              ? recorder->BeginActive("search", trace_id, search_span,
                                      TraceNowNs())
              : -1;
      // Retry-with-backoff: transient terminations (injected faults, the
      // non-time budgets) are re-run while the retry policy and the batch
      // deadline slack allow. Each attempt computes a fresh fair slice;
      // the final attempt's result — and only its work counters — stands.
      std::size_t attempt = 1;
      SearchExplain sexplain;
      for (;;) {
        // Fresh per-attempt trace context: phase accumulators restart and
        // the search span id carries the attempt ordinal, so a retried
        // search never aliases the spans of its aborted attempts.
        SearchTrace strace;
        SearchTrace* strace_ptr = nullptr;
        if (span_tracing || profiler != nullptr) {
          strace.collector = collector.has_value() ? &*collector : nullptr;
          strace.profiler = profiler;
          strace.trace_id = trace_id;
          strace.root_span_id = root_span;
          strace.search_span_id = DeriveSpanId(
              root_span, TraceSpanKind::kSearch, attempt - 1);
          search_span = strace.search_span_id;
          strace_ptr = &strace;
        }
        // Fresh per-attempt decision log, for the same reason: the reported
        // log describes exactly the attempt whose result stands.
        sexplain = SearchExplain();
        result = SaveImpl(outlier, options, task_slice(), batch.cancellation,
                          nested, strace_ptr,
                          ecollector.has_value() ? &sexplain : nullptr);
        if (attempt >= recovery.retry.max_attempts ||
            !RetryPolicy::IsTransient(result.termination)) {
          break;
        }
        const auto backoff = recovery.retry.BackoffFor(attempt - 1);
        if (batch.cancellation.cancelled() ||
            (!batch.deadline.is_infinite() &&
             batch.deadline.remaining() < 2 * backoff)) {
          break;  // no slack left to carve the retry from
        }
        std::this_thread::sleep_for(backoff);
        ++attempt;
        if (progress != nullptr) progress->RecordRetry();
      }
      result.stats.retries = attempt - 1;
      remaining.fetch_sub(1, std::memory_order_relaxed);
      if (recorder != nullptr) recorder->EndActive(active_slot);
      if (ecollector.has_value()) {
        // The finished decision log: the final attempt's events plus the
        // verdict fields and the SearchStats mirrors the analyzer
        // cross-checks against (scripts/analyze_explain.py).
        ExplainSearchLog log;
        log.ordinal = ordinal;
        log.trace_id = trace_id;
        log.attempt = attempt;
        log.termination = SaveTerminationName(result.termination);
        log.feasible = result.feasible;
        if (result.feasible) log.final_cost = result.cost;
        log.global_lb = result.lower_bound;
        log.wall_nanos = result.stats.wall_nanos;
        log.visited_sets = result.stats.visited_sets;
        log.lb_prunes = result.stats.lb_prunes;
        log.nodes_expanded = result.stats.nodes_expanded;
        log.revert_refines = result.stats.revert_refines;
        log.abandoned_scans = sexplain.abandoned_scans;
        log.dropped_events = sexplain.dropped_events;
        log.events = std::move(sexplain.events);
        ecollector->Record(
            SpanSlotForWorker(WorkStealingPool::CurrentWorkerIndex(),
                              ecollector->slots()),
            std::move(log));
      }
    }
    result.trace_id = trace_id;
    if (recovery.journal != nullptr &&
        (result.termination == SaveTermination::kCompleted ||
         result.termination == SaveTermination::kInfeasible)) {
      Status journal_status = recovery.journal->Append(ordinal, result);
      if (!journal_status.ok()) {
        // Best-effort durability: a failed append only means this outlier
        // would be re-searched on resume. The batch itself continues.
        DISC_LOG(WARN)
            .Int("ordinal", static_cast<long long>(ordinal))
            .Str("status", journal_status.ToString())
            << "journal append failed";
      }
    }
    if (progress != nullptr) {
      progress->RecordOutlier(result.termination, result.stats.wall_nanos);
    }
    if (collector.has_value()) {
      // Recorded into this thread's own span buffer; the batch-end drain
      // emits everything to the sink sorted by (trace_id, span_id), so the
      // JSONL order is deterministic. `ordinal` keys each span back to its
      // input position.
      TraceSpan span;
      span.name = "search";
      span.start_ns = result.stats.start_ns;
      span.duration_ns = result.stats.wall_nanos;
      span.trace_id = trace_id;
      span.span_id = search_span;
      span.parent_id = root_span;
      span.Int("ordinal", ordinal)
          .Str("termination", SaveTerminationName(result.termination));
      result.stats.AttachTo(&span);
      collector->Record(
          SpanSlotForWorker(WorkStealingPool::CurrentWorkerIndex(),
                            collector->slots()),
          std::move(span));
    }
    return result;
  };

  // Batch-end drain: every per-thread span buffer is merged and sorted by
  // (trace_id, span_id), so the JSONL sink sees a deterministic order
  // regardless of worker scheduling. Only the top-level search spans feed
  // the /tracez ring — phase and chunk spans stay in the sink.
  auto drain_spans = [&]() {
    if (!collector.has_value()) return;
    for (TraceSpan& span : collector->Drain()) {
      if (recorder != nullptr && span.name == "search") {
        recorder->RecordFinished(span);
      }
      if (trace != nullptr) trace->Emit(span);
    }
  };

  // Explain drain: logs come back sorted by (ordinal, attempt), so the sink
  // sees input order, /explainz sees the same recent window at every thread
  // count, and the metric flush sums are deterministic.
  auto drain_explain = [&]() {
    if (!ecollector.has_value()) return;
    const std::vector<ExplainSearchLog> logs = ecollector->Drain();
    for (const ExplainSearchLog& log : logs) {
      if (erecorder != nullptr) erecorder->RecordSearch(log);
      if (explain != nullptr) explain->Emit(log);
    }
    FlushExplainMetrics(GlobalMetrics(), logs);
  };

  if (pending == 0) {
    if (progress != nullptr) progress->MarkDone();
    return results;
  }

  if (!parallel) {
    for (std::size_t i = 0; i < n; ++i) {
      if (restored[i] != 0) continue;
      results[i] = run_one(outliers[i], i);
    }
    drain_spans();
    drain_explain();
    if (progress != nullptr) progress->MarkDone();
    return results;
  }

  // Cost-ordered work stealing. The searches vary wildly in cost (pruning
  // depends on how deep in a cluster the donor tuples sit); a FIFO schedule
  // routinely strands the most expensive search at the tail of the batch,
  // serializing its whole runtime behind everything else. Estimating each
  // search's difficulty first and dispatching hardest-first bounds that
  // tail by the longest single search — and the estimates are cheap enough
  // (one kNN query each, ~the cost of one bound scan) to amortize across
  // the batch. The estimate pass runs on the same pool, in input order.
  MetricsRegistry* metrics = GlobalMetrics();
  const WorkStealingPool::SchedStats before = pool->stats();
  Gauge* depth_gauge =
      metrics != nullptr
          ? metrics->GetGauge("disc_sched_queue_depth",
                              "Batch save tasks queued but not yet started "
                              "on the work-stealing pool")
          : nullptr;

  std::vector<double> estimates(n, 0.0);
  std::vector<std::size_t> order;
  order.reserve(pending);
  for (std::size_t i = 0; i < n; ++i) {
    if (restored[i] == 0) order.push_back(i);
  }
  {
    const std::vector<std::size_t> input_order = order;
    pool->RunBatch(input_order, [&](std::size_t i) {
      const bool timed = collector.has_value() || profiler != nullptr;
      const std::uint64_t start_ns = timed ? TraceNowNs() : 0;
      estimates[i] = EstimateSearchCost(outliers[i]);
      if (!timed) return;
      const std::uint64_t elapsed = TraceNowNs() - start_ns;
      if (profiler != nullptr) profiler->Add(TracePhase::kEstimate, elapsed);
      if (collector.has_value()) {
        const std::uint64_t trace_id = DeriveTraceId(batch_seed, i);
        const std::uint64_t root_span =
            DeriveSpanId(trace_id, TraceSpanKind::kRoot, 0);
        TraceSpan span;
        span.name = "estimate";
        span.start_ns = start_ns;
        span.duration_ns = elapsed;
        span.trace_id = trace_id;
        span.span_id = DeriveSpanId(root_span, TraceSpanKind::kEstimate, 0);
        span.parent_id = root_span;
        span.Int("ordinal", i).Num("cost", estimates[i]);
        collector->Record(
            SpanSlotForWorker(WorkStealingPool::CurrentWorkerIndex(),
                              collector->slots()),
            std::move(span));
      }
    });
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimates[a] > estimates[b];
                   });

  // One task per outlier, hardest first; results land in their input slot,
  // which together with the unchanged per-outlier search order makes the
  // output bit-identical to the sequential path — including under a batch
  // budget, where skipped tasks produce their records without ever
  // blocking the pool's drain.
  pool->RunBatch(order, [&](std::size_t i) {
    results[i] = run_one(outliers[i], i);
    if (depth_gauge != nullptr) {
      depth_gauge->Set(static_cast<std::int64_t>(pool->queue_depth()));
    }
  });
  if (depth_gauge != nullptr) depth_gauge->Set(0);
  drain_spans();
  drain_explain();
  if (metrics != nullptr) {
    const WorkStealingPool::SchedStats after = pool->stats();
    if (Counter* c = metrics->GetCounter(
            "disc_sched_tasks_total",
            "Work-stealing pool tasks executed (cost estimates and "
            "per-outlier searches)")) {
      c->Add(after.tasks - before.tasks);
    }
    if (Counter* c =
            metrics->GetCounter("disc_sched_steals_total",
                                "Tasks taken from another worker's deque")) {
      c->Add(after.steals - before.steals);
    }
    if (Counter* c = metrics->GetCounter(
            "disc_sched_nested_chunks_total",
            "Nested bound-scan chunks executed by pool workers")) {
      c->Add(after.nested_chunks - before.nested_chunks);
    }
  }
  if (progress != nullptr) progress->MarkDone();
  return results;
}

}  // namespace disc
