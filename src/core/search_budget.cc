#include "core/search_budget.h"

#include <algorithm>
#include <string>

#include "core/observation.h"

namespace disc {

namespace {

/// Row-scan polls between deadline/cancellation checks. A steady-clock read
/// costs ~20 ns; at one check per 64 rows the overhead is invisible next to
/// the per-row distance evaluation, while a stop is still noticed within
/// microseconds.
constexpr std::size_t kScanPollStride = 64;

}  // namespace

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

Status SaveTerminationStatus(SaveTermination t) {
  switch (t) {
    case SaveTermination::kCompleted:
    case SaveTermination::kInfeasible:
      return Status::OK();
    case SaveTermination::kVisitBudget:
      return Status::ResourceExhausted("visited-set budget exhausted");
    case SaveTermination::kQueryBudget:
      return Status::ResourceExhausted("index-query budget exhausted");
    case SaveTermination::kDeadline:
      return Status::DeadlineExceeded("save deadline expired");
    case SaveTermination::kCancelled:
      return Status::Cancelled("save cancelled");
    case SaveTermination::kFault:
      return Status::ResourceExhausted("search aborted by a transient fault");
  }
  return Status::Internal("unknown termination");
}

Deadline BatchBudget::TaskDeadline(std::size_t workers,
                                  std::size_t left) const {
  Deadline task = deadline;
  if (!deadline.is_infinite()) {
    left = std::max<std::size_t>(1, left);
    const auto rem = deadline.remaining();
    // The clamp skips the multiply for absurdly long deadlines (overflow
    // safety).
    auto slice = rem;
    if (rem < std::chrono::hours(1)) {
      slice = rem * static_cast<std::int64_t>(std::min(workers, left)) /
              static_cast<std::int64_t>(left);
    }
    task = Deadline::Min(deadline, Deadline::After(slice));
  }
  if (per_outlier_limit.count() > 0) {
    task = Deadline::Min(task, Deadline::After(per_outlier_limit));
  }
  return task;
}

std::chrono::milliseconds RetryPolicy::BackoffFor(
    std::size_t retry_index) const {
  double ms = static_cast<double>(initial_backoff.count());
  for (std::size_t i = 0; i < retry_index; ++i) ms *= backoff_multiplier;
  const double cap = static_cast<double>(max_backoff.count());
  if (!(ms < cap)) ms = cap;
  if (ms < 0.0) ms = 0.0;
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

bool RetryPolicy::IsTransient(SaveTermination t) {
  return t == SaveTermination::kFault || t == SaveTermination::kVisitBudget ||
         t == SaveTermination::kQueryBudget;
}

BudgetGauge::BudgetGauge(const SearchBudget* budget, Deadline extra_deadline,
                         CancellationToken extra_cancellation)
    : budget_(budget),
      deadline_(Deadline::Min(
          budget != nullptr ? budget->deadline : Deadline::Infinite(),
          extra_deadline)),
      extra_cancellation_(std::move(extra_cancellation)),
      fault_node_(FaultSiteFor("search.node")),
      fault_scan_(FaultSiteFor("bounds.scan")) {}

bool BudgetGauge::Stop(SaveTermination why) {
  if (!stopped_) {
    stopped_ = true;
    reason_ = why;
  }
  return false;
}

bool BudgetGauge::Cancelled() const {
  return (budget_ != nullptr && budget_->cancellation.cancelled()) ||
         extra_cancellation_.cancelled();
}

bool BudgetGauge::Poll(FaultInjector::Site* fault) {
  if (fault != nullptr && !fault->Hit().ok()) {
    return Stop(SaveTermination::kFault);
  }
  if (Cancelled()) return Stop(SaveTermination::kCancelled);
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

bool BudgetGauge::KeepScanning() {
  if (stopped_) return false;
  if ((++scan_polls_ % kScanPollStride) != 0) return true;
  return Poll(fault_scan_);
}

bool BudgetGauge::HardStopRequested() const {
  return Cancelled() || deadline_.expired();
}

void BudgetGauge::RecordHardStop() {
  Stop(Cancelled() ? SaveTermination::kCancelled : SaveTermination::kDeadline);
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
