#include "core/exact_saver.h"

#include <limits>

#include "core/bounds.h"
#include "core/observation.h"
#include "index/index_factory.h"

namespace disc {

ExactSaver::ExactSaver(const Relation& inliers,
                       const DistanceEvaluator& evaluator,
                       DistanceConstraint constraint)
    : inliers_(inliers), evaluator_(evaluator), constraint_(constraint) {
  index_ = MakeNeighborIndex(inliers_, evaluator_, constraint_.epsilon);
  domains_.reserve(inliers_.arity());
  for (std::size_t a = 0; a < inliers_.arity(); ++a) {
    domains_.push_back(inliers_.Domain(a));
  }
}

struct ExactSaver::EnumState {
  double best_cost = std::numeric_limits<double>::infinity();
  Tuple best_adjusted;
  bool found = false;
  BudgetGauge* gauge = nullptr;
};

void ExactSaver::Enumerate(const Tuple& outlier, std::size_t attr,
                           Tuple* candidate, double partial_cost_raw,
                           EnumState* state) const {
  if (state->gauge->stopped()) return;
  const LpNorm norm = evaluator_.norm();
  // `partial_cost_raw` is the norm's running aggregate (sum of squares for
  // L2, sum for L1, max for L∞), compared with the incumbent in that form.
  auto best_raw = [&]() {
    if (!state->found) return std::numeric_limits<double>::infinity();
    if (norm == LpNorm::kL2) return state->best_cost * state->best_cost;
    return state->best_cost;
  };

  if (partial_cost_raw >= best_raw()) {
    return;  // cannot beat the incumbent no matter what follows
  }

  if (attr == evaluator_.arity()) {
    // One fully assembled candidate = one budget unit: fire the fault hook,
    // poll deadline/cancellation, and count toward the visit budget. The
    // incumbent only ever holds candidates that passed a complete
    // feasibility check, so stopping here is always safe. The gauge's
    // nodes_expanded counts the candidates.
    BudgetGauge* gauge = state->gauge;
    if (!gauge->OnNodeExpanded(gauge->nodes_expanded() + 1)) {
      ExplainEvent event;
      event.action = ExplainAction::kPruneBudget;
      event.x_bits = ChangedAttributes(outlier, *candidate).bits();
      event.incumbent = state->best_cost;
      gauge->RecordDecision(event);
      return;
    }
    if (CountFeasible(*index_, constraint_, *candidate, gauge)) {
      // Early exit past the incumbent: a candidate strictly costlier than
      // best_cost comes back as +infinity and fails the `<` identically.
      double cost =
          evaluator_.DistanceWithin(outlier, *candidate, state->best_cost);
      if (cost < state->best_cost) {
        state->best_cost = cost;
        state->best_adjusted = *candidate;
        state->found = true;
        ExplainEvent event;
        event.action = ExplainAction::kIncumbentUpdate;
        event.x_bits = ChangedAttributes(outlier, *candidate).bits();
        event.ub = cost;
        event.incumbent = cost;
        gauge->RecordDecision(event);
      }
    }
    return;
  }

  // Try the unmodified value first (zero marginal cost), then each domain
  // value sorted implicitly by the relation's domain order.
  auto step = [&](const Value& v) {
    double d = evaluator_.AttributeDistance(attr, outlier[attr], v);
    double add = (norm == LpNorm::kL2) ? d * d : d;
    double next_raw = (norm == LpNorm::kLInf)
                          ? std::max(partial_cost_raw, add)
                          : partial_cost_raw + add;
    (*candidate)[attr] = v;
    Enumerate(outlier, attr + 1, candidate, next_raw, state);
    (*candidate)[attr] = outlier[attr];
  };

  step(outlier[attr]);
  for (const Value& v : domains_[attr]) {
    if (state->gauge->stopped()) return;
    if (v == outlier[attr]) continue;
    step(v);
  }
}

SaveResult ExactSaver::Save(const Tuple& outlier, const SaveOptions& options,
                            Deadline deadline,
                            const CancellationToken& cancellation,
                            SearchObserver* observer) const {
  const std::uint64_t start_ns = TraceNowNs();
  BudgetGauge gauge(&options.budget, deadline, cancellation);
  gauge.set_observer(observer);
  EnumState state;
  state.gauge = &gauge;
  Tuple candidate = outlier;
  Enumerate(outlier, 0, &candidate, 0.0, &state);

  SaveResult result;
  result.stats = gauge.stats();
  result.stats.start_ns = start_ns;
  result.stats.wall_nanos = TraceNowNs() - start_ns;
  if (gauge.stopped()) {
    result.termination = gauge.reason();
  } else if (state.found) {
    result.termination = SaveTermination::kCompleted;
  } else {
    result.termination = SaveTermination::kInfeasible;
  }
  const AttributeSet changed =
      state.found ? ChangedAttributes(outlier, state.best_adjusted)
                  : AttributeSet();
  result.kappa_exceeded = options.kappa != 0 && changed.size() > options.kappa;
  if (state.found && !result.kappa_exceeded) {
    result.feasible = true;
    result.adjusted = state.best_adjusted;
    result.cost = state.best_cost;
    result.adjusted_attributes = changed;
  } else {
    result.adjusted = outlier;
  }
  return result;
}

}  // namespace disc
