#include "core/search_budget.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/observation.h"

namespace disc {

const char* SaveTerminationName(SaveTermination t) {
  switch (t) {
    case SaveTermination::kCompleted:
      return "completed";
    case SaveTermination::kVisitBudget:
      return "visit_budget";
    case SaveTermination::kQueryBudget:
      return "query_budget";
    case SaveTermination::kDeadline:
      return "deadline";
    case SaveTermination::kCancelled:
      return "cancelled";
    case SaveTermination::kInfeasible:
      return "infeasible";
    case SaveTermination::kFault:
      return "fault";
  }
  return "unknown";
}

Deadline BatchBudget::TaskDeadline(std::size_t workers,
                                  std::size_t left) const {
  if (deadline.is_infinite()) return deadline;
  left = std::max<std::size_t>(1, left);
  const auto rem = deadline.remaining();
  // The clamp skips the multiply for absurdly long deadlines (overflow
  // safety).
  auto slice = rem;
  if (rem < std::chrono::hours(1)) {
    slice = rem * static_cast<std::int64_t>(std::min(workers, left)) /
            static_cast<std::int64_t>(left);
  }
  return Deadline::Min(deadline, Deadline::After(slice));
}

BudgetGauge::BudgetGauge(const SearchBudget* budget, Deadline deadline,
                         CancellationToken cancellation)
    : budget_(budget),
      deadline_(deadline),
      cancellation_(std::move(cancellation)),
      fault_node_(FaultSiteFor("search.node")),
      fault_scan_(FaultSiteFor("bounds.scan")) {}

bool BudgetGauge::Stop(SaveTermination why) {
  if (!stopped_) {
    stopped_ = true;
    reason_ = why;
  }
  return false;
}

bool BudgetGauge::Poll(FaultInjector::Site* fault) {
  if (fault != nullptr && !fault->Hit().ok()) {
    return Stop(SaveTermination::kFault);
  }
  if (cancellation_.cancelled()) return Stop(SaveTermination::kCancelled);
  if (deadline_.expired()) return Stop(SaveTermination::kDeadline);
  return true;
}

bool BudgetGauge::OnNodeExpanded(std::size_t visited_sets) {
  ++stats_.nodes_expanded;
  if (stopped_ || !Poll(fault_node_)) return false;
  if (budget_ != nullptr && budget_->max_visited_sets != 0 &&
      visited_sets > budget_->max_visited_sets) {
    return Stop(SaveTermination::kVisitBudget);
  }
  if (budget_ != nullptr && budget_->max_index_queries != 0 &&
      stats_.index_queries > budget_->max_index_queries) {
    return Stop(SaveTermination::kQueryBudget);
  }
  return true;
}

bool BudgetGauge::HardStopRequested() const {
  return cancellation_.cancelled() || deadline_.expired();
}

void BudgetGauge::RecordHardStop() {
  Stop(cancellation_.cancelled() ? SaveTermination::kCancelled
                                 : SaveTermination::kDeadline);
}

void BudgetGauge::RecordDecision(const ExplainEvent& event) {
  if (event.action == ExplainAction::kPruneLb ||
      event.action == ExplainAction::kInfeasible) {
    ++stats_.lb_prunes;
  } else if (event.action == ExplainAction::kRevertRefine) {
    ++stats_.revert_refines;
  }
  if (observer_ != nullptr) observer_->Capture(event);
}

bool BudgetGauge::ContinueRefinement() {
  if (stopped_ && (reason_ == SaveTermination::kDeadline ||
                   reason_ == SaveTermination::kCancelled ||
                   reason_ == SaveTermination::kFault)) {
    return false;
  }
  return Poll(nullptr);
}

}  // namespace disc
