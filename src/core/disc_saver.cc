#include "core/disc_saver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "core/observation.h"
#include "core/save_journal.h"
#include "index/index_factory.h"
#include "index/kd_tree.h"

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

/// Record for a search aborted by an injected fault before any real work:
/// untouched tuple, kFault termination (not journaled, so a resumed batch
/// searches it again), wall time covering only the aborted setup.
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
                     DistanceConstraint constraint, WorkStealingPool* pool)
    : inliers_(inliers), evaluator_(evaluator), constraint_(constraint) {
  index_ = MakeNeighborIndex(inliers_, evaluator_, constraint_.epsilon);
  cache_ = std::make_unique<KthNeighborCache>(inliers_, *index_,
                                              constraint_.eta, pool);
  bounds_ = std::make_unique<BoundsEngine>(inliers_, evaluator_, *index_,
                                           *cache_, constraint_);
}

struct DiscSaver::SearchState {
  double best_cost = std::numeric_limits<double>::infinity();
  Tuple best_adjusted;
  bool found = false;
  std::unordered_set<std::uint64_t> visited;
  BudgetGauge* gauge = nullptr;
  /// Where every band pass of this search reads its rows: the kd-tree, or
  /// the search's all-rows distance cache.
  const BandSource* source = nullptr;
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
  // Decision capture (DESIGN.md §14): exactly one RecordDecision per visited
  // node, naming the rule that settled it and the bounds behind it. `node`
  // accumulates as the node is evaluated.
  ExplainEvent node;
  node.x_bits = x.bits();
  node.incumbent = state->best_cost;
  auto settle = [&](ExplainAction action) {
    node.action = action;
    gauge->RecordDecision(node);
  };
  if (!state->visited.insert(x.bits()).second) {
    return settle(ExplainAction::kMemoHit);  // already processed (§3.3.1)
  }
  // Node expansion: hit the `search.node` fault site, then check
  // cancellation, deadline, visited-set and query budgets. On any trip the
  // incumbent stands and the whole search unwinds (anytime contract).
  if (!gauge->OnNodeExpanded(state->visited.size())) {
    return settle(ExplainAction::kPruneBudget);
  }

  // Dominance: a superset of a cut set is cut without a scan. It stays
  // memo-visited, so the node counters and fault schedules do not move.
  if (state->dominance && state->Dominated(x)) {
    return settle(ExplainAction::kPruneDominated);
  }

  // One band pass: X's band, from the parent's, plus — with pruning — the
  // lower bound (Algorithm 1 lines 1-3, Proposition 3). Any adjustment that
  // keeps X fixed costs at least LB(X); supersets of X only cost more, so
  // the whole subtree is cut when LB(X) >= incumbent.
  BoundsEngine::Band& band = state->bands[depth];
  const double lb =
      bounds_->BandPass(*state->source, x, parent,
                        options.use_lower_bound_pruning, &band, gauge,
                        state->nested);
  if (gauge->stopped()) return settle(ExplainAction::kPruneBudget);
  if (options.use_lower_bound_pruning) {
    node.lb = lb;
    if (lb >= state->best_cost) {
      if (state->dominance) state->AddCut(x);
      return settle(std::isinf(lb) ? ExplainAction::kInfeasible
                                   : ExplainAction::kPruneLb);
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
          : bounds_->DonorSplice(outlier, x, *state->source, band, gauge,
                                 state->nested);
  if (gauge->stopped()) return settle(ExplainAction::kPruneBudget);
  if (ub.has_value()) {
    node.ub = ub->cost;
    node.donor_row = ub->donor_row;
  }
  if (ub.has_value() && ub->cost < state->best_cost) {
    state->best_cost = ub->cost;
    state->best_adjusted = ub->adjusted;
    state->found = true;
    node.incumbent = state->best_cost;
    settle(ExplainAction::kIncumbentUpdate);
  } else {
    settle(ExplainAction::kExpand);
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
        ExplainEvent event;
        event.action = ExplainAction::kRevertRefine;
        event.x_bits = AttributeSet().With(a).bits();
        event.ub = evaluator_.Distance(outlier, *adjusted);
        gauge->RecordDecision(event);
        changed = true;
        break;  // re-rank contributions after each successful revert
      }
    }
  }
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

SaveResult DiscSaver::Save(const Tuple& outlier, const SaveOptions& options,
                           Deadline deadline,
                           const CancellationToken& cancellation,
                           WorkStealingPool* nested,
                           SearchObserver* observer) const {
  const std::uint64_t start_ns = TraceNowNs();
  // `search.start` fault site: an error here aborts the search before any
  // work, as an index handle or arena acquisition would.
  if (Status s = DISC_FAULT_POINT("search.start"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const std::size_t arity = evaluator_.arity();
  const bool restricted = options.kappa != 0 && options.kappa < arity;
  BudgetGauge gauge(&options.budget, deadline, cancellation);
  // Context propagation: the observer rides on the gauge, which every bound
  // computation and index query of this search already receives.
  gauge.set_observer(observer);
  SearchState state;
  state.gauge = &gauge;
  state.nested = nested;

  // Where the band passes read their rows. When the kd-tree serves this
  // search, a pass that starts from all rows walks the tree instead, X = ∅
  // asks nearest-neighbour queries, and nothing is filled per search.
  // Otherwise (a relation the tree does not serve, or a NaN full distance)
  // a SearchDistanceCache holds Δ(t_o, t) to every inlier, filled once
  // here, and every pass walks all rows or its parent's list over it.
  // `dcache.fill` fault site, hit once per search on either path: the
  // cache's eager fill is the search's single biggest allocation, so a
  // simulated allocation failure lands here and aborts the search as
  // kFault.
  if (Status s = DISC_FAULT_POINT("dcache.fill"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const KdTree* tree = bounds_->TreeFor(outlier);
  std::optional<SearchDistanceCache> dcache;
  if (tree == nullptr) {
    dcache.emplace(inliers_, evaluator_, outlier, nullptr, &gauge.stats(),
                   nested, observer);
  }
  const BandSource source =
      tree != nullptr ? BandSource(*tree, outlier) : BandSource(*dcache);
  state.source = &source;
  state.bands.resize(arity + 1);
  state.dominance = options.use_lower_bound_pruning && !source.has_nan();

  // The X = emptyset upper bound (Lemma 4 flavour): nearest substitution-
  // style donor. In unrestricted mode it seeds the incumbent directly. In
  // kappa-restricted mode it is kept OUT of the search incumbent — the
  // incumbent there tracks the best kappa-qualified splice (every visited X
  // has |X| >= m − kappa, so its splice changes <= kappa attributes), and
  // letting the often-cheaper substitution into it would both over-prune
  // and mask the low-attribute adjustment the caller asked for. The
  // substitution is reconsidered after revert refinement below.
  bounds_->BandPass(source, AttributeSet(), nullptr, /*lower_bound=*/false,
                    &state.bands[0], &gauge, nested);
  const std::optional<BoundsEngine::UpperBound> global_seed =
      gauge.stopped() ? std::nullopt
                      : bounds_->DonorSplice(outlier, AttributeSet(), source,
                                             state.bands[0], &gauge, nested);
  if (!restricted && global_seed.has_value()) {
    state.best_cost = global_seed->cost;
    state.best_adjusted = global_seed->adjusted;
    state.found = true;
    // The seed is an incumbent adoption but not a visited node; `seed` keeps
    // it out of the node-count cross-checks (obs/explain.h).
    ExplainEvent event;
    event.action = ExplainAction::kIncumbentUpdate;
    event.seed = true;
    event.ub = global_seed->cost;
    event.incumbent = global_seed->cost;
    event.donor_row = global_seed->donor_row;
    gauge.RecordDecision(event);
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

  // Collect candidates: the search incumbent (kappa-qualified when
  // restricted) and, in restricted mode, the reverted substitution seed —
  // kept only if the revert brought it within the kappa budget. This whole
  // section is the `verdict` wall phase (RevertRefine's feasibility checks
  // pause it for their index_query time).
  {
    PhaseScope verdict_phase(observer, TracePhase::kVerdict);
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
  // The termination/accounting fields, now that the verdict fields
  // (feasible, kappa_exceeded) are final.
  result.stats = gauge.stats();
  result.stats.visited_sets = state.visited.size();
  result.stats.start_ns = start_ns;
  result.stats.wall_nanos = TraceNowNs() - start_ns;
  if (gauge.stopped()) {
    result.termination = gauge.reason();
  } else if (result.feasible || result.kappa_exceeded) {
    result.termination = SaveTermination::kCompleted;
  } else {
    result.termination = SaveTermination::kInfeasible;
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
  return SaveBatch(
      outliers,
      [&](const Tuple& outlier, Deadline deadline,
          const CancellationToken& cancellation, WorkStealingPool* nested,
          SearchObserver* observer) {
        return Save(outlier, options, deadline, cancellation, nested,
                    observer);
      },
      [&](const Tuple& outlier) { return EstimateSearchCost(outlier); },
      /*exact=*/false, pool, batch, trace, recovery, explain);
}

std::vector<SaveResult> SaveBatch(
    const std::vector<Tuple>& outliers, const BatchSearch& save,
    const std::function<double(const Tuple&)>& estimate, bool exact,
    WorkStealingPool* pool, const BatchBudget& batch, TraceSink* trace,
    const BatchRecovery& recovery, ExplainSink* explain) {
  const std::size_t n = outliers.size();
  std::vector<SaveResult> results(n);
  if (n == 0) return results;

  // Resume: restore journaled results up front. Restored ordinals never
  // touch the pool — no estimate query, no search, no trace span — which
  // is what keeps the merged batch bit-identical to an uninterrupted run
  // (the journal stored the exact bits the original search produced).
  std::vector<char> restored(n, 0);
  if (recovery.resume != nullptr) {
    for (const SaveJournalEntry& entry : recovery.resume->entries) {
      if (entry.ordinal >= n) continue;
      results[entry.ordinal] = entry.result;
      restored[entry.ordinal] = 1;
    }
  }
  std::vector<std::size_t> order;  // pending ordinals, input order
  for (std::size_t i = 0; i < n; ++i) {
    if (restored[i] == 0) order.push_back(i);
  }
  const std::size_t pending = order.size();

  const bool parallel = pool != nullptr && pool->size() > 1 && pending > 1;
  const std::size_t workers =
      parallel ? std::min<std::size_t>(pool->size(), pending) : 1;
  WorkStealingPool* nested = parallel ? pool : nullptr;

  // Spans, decision logs, /tracez, progress and scheduler metrics
  // (DESIGN.md §13–§14). Nothing here touches the search itself: results
  // stay bit-identical with or without observers.
  BatchObservation observation(exact, n, batch.deadline, trace, explain,
                               nested);
  for (std::size_t i = 0; i < n; ++i) {
    if (restored[i] != 0) observation.Resumed(results[i].termination);
  }

  // Fair sub-deadlines: each task, when it *starts*, takes its share of the
  // remaining batch clock (BatchBudget::TaskDeadline); a task that would
  // start past the deadline is drained-and-skipped.
  std::atomic<std::size_t> remaining{pending};

  auto run_one = [&](std::size_t ordinal) -> SaveResult {
    const Tuple& outlier = outliers[ordinal];
    BatchObservation::Search search(&observation, ordinal);
    SaveResult result;
    if (batch.cancellation.cancelled()) {
      result = SkippedResult(outlier, SaveTermination::kCancelled);
    } else if (batch.deadline.expired()) {
      result = SkippedResult(outlier, SaveTermination::kDeadline);
    } else {
      result = save(outlier,
                    batch.TaskDeadline(
                        workers, remaining.load(std::memory_order_relaxed)),
                    batch.cancellation, nested, search.Start());
    }
    remaining.fetch_sub(1, std::memory_order_relaxed);
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
    search.Finish(&result);
    return result;
  };

  if (!parallel) {
    for (std::size_t i : order) results[i] = run_one(i);
  } else {
    // Cost-ordered work stealing. The searches vary wildly in cost (pruning
    // depends on how deep in a cluster the donor tuples sit); a FIFO
    // schedule routinely strands the most expensive search at the tail of
    // the batch, serializing its whole runtime behind everything else.
    // Estimating each search's difficulty first and dispatching
    // hardest-first bounds that tail by the longest single search — and the
    // estimates are cheap enough (one kNN query each, ~the cost of one
    // bound scan) to amortize across the batch. The estimate pass runs on
    // the same pool, in input order.
    std::vector<double> estimates(n, 0.0);
    pool->RunBatch(order, [&](std::size_t i) {
      estimates[i] =
          observation.TimeEstimate(i, [&] { return estimate(outliers[i]); });
    });
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return estimates[a] > estimates[b];
                     });
    // One task per outlier, hardest first; results land in their input
    // slot, which together with the unchanged per-outlier search order
    // makes the output bit-identical to the sequential path — including
    // under a batch budget, where skipped tasks produce their records
    // without ever blocking the pool's drain.
    pool->RunBatch(order, [&](std::size_t i) { results[i] = run_one(i); });
  }
  observation.Finish();
  return results;
}

}  // namespace disc
