#include "core/observation.h"

#include <limits>
#include <utility>

#include "common/metrics.h"
#include "core/disc_saver.h"
#include "obs/progress.h"

namespace disc {

void SearchObserver::Capture(const ExplainEvent& event) {
  if (!capture) return;
  if (events.size() >= kExplainMaxEventsPerSearch) {
    ++dropped_events;
    return;
  }
  events.push_back(event);
}

void SearchObserver::FlushPhases() const {
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const PhaseAcc& acc = phases[p];
    if (acc.count == 0) continue;
    const TracePhase phase = static_cast<TracePhase>(p);
    if (profiler != nullptr) profiler->Add(phase, acc.ns);
    if (spans == nullptr) continue;
    TraceSpan span{.name = TracePhaseName(phase),
                   .start_ns = acc.first_start_ns,
                   .duration_ns = acc.ns,
                   .trace_id = trace_id,
                   .span_id = PhaseSpanId(phase),
                   .parent_id = search_span_id};
    spans->Record(std::move(span.Int("count", acc.count)));
  }
}

PhaseScope::PhaseScope(SearchObserver* observer, TracePhase phase)
    : observer_(observer != nullptr && observer->timed() ? observer : nullptr),
      phase_(phase) {
  if (observer_ == nullptr) return;
  const std::uint64_t now = TraceNowNs();
  prev_ = observer_->active_scope;
  if (prev_ != nullptr) {
    // Pause the enclosing phase: bank its running segment.
    prev_->banked_ns_ += now - prev_->segment_start_ns_;
  }
  first_start_ns_ = now;
  segment_start_ns_ = now;
  observer_->active_scope = this;
}

PhaseScope::~PhaseScope() {
  if (observer_ == nullptr) return;
  const std::uint64_t now = TraceNowNs();
  banked_ns_ += now - segment_start_ns_;
  SearchObserver::PhaseAcc& acc =
      observer_->phases[static_cast<std::size_t>(phase_)];
  acc.ns += banked_ns_;
  acc.count += 1;
  if (acc.first_start_ns == 0) acc.first_start_ns = first_start_ns_;
  if (prev_ != nullptr) prev_->segment_start_ns_ = now;  // resume outer
  observer_->active_scope = prev_;
}

BatchObservation::BatchObservation(bool exact, std::size_t outliers,
                                   Deadline deadline, TraceSink* trace,
                                   ExplainSink* explain,
                                   WorkStealingPool* pool)
    : algo_(exact ? "exact" : "disc"),
      trace_(trace),
      explain_(explain),
      recorder_(GlobalTraceRecorder()),
      profiler_(GlobalWallProfiler()),
      explain_recorder_(GlobalExplainRecorder()),
      metrics_(GlobalMetrics()),
      pool_(pool) {
  const std::size_t slots = (pool_ != nullptr ? pool_->size() : 0) + 1;
  if (trace_ != nullptr || recorder_ != nullptr) spans_.emplace(slots);
  if (explain_ != nullptr || explain_recorder_ != nullptr) logs_.emplace(slots);
  if (spans_.has_value() || logs_.has_value()) {
    batch_seed_ = NextTraceBatchSeed();
  }
  if (ProgressRegistry* registry = GlobalProgress()) {
    progress_ = registry->StartBatch(exact ? "save_exact" : "save_all",
                                     outliers, deadline);
  }
  if (pool_ != nullptr) {
    sched_before_ = pool_->stats();
    if (metrics_ != nullptr) {
      depth_gauge_ = metrics_->GetGauge(
          "disc_sched_queue_depth",
          "Batch save tasks queued but not yet started on the work-stealing "
          "pool");
    }
  }
}

void BatchObservation::Resumed(SaveTermination termination) {
  if (progress_ != nullptr) progress_->RecordResumed(termination);
}

void BatchObservation::RecordEstimate(std::size_t ordinal,
                                      std::uint64_t start_ns, double cost) {
  const std::uint64_t elapsed = TraceNowNs() - start_ns;
  if (profiler_ != nullptr) profiler_->Add(TracePhase::kEstimate, elapsed);
  if (!spans_.has_value()) return;
  const std::uint64_t trace_id = DeriveTraceId(batch_seed_, ordinal);
  const std::uint64_t root = DeriveSpanId(trace_id, TraceSpanKind::kRoot, 0);
  TraceSpan span{.name = "estimate",
                 .start_ns = start_ns,
                 .duration_ns = elapsed,
                 .trace_id = trace_id,
                 .span_id = DeriveSpanId(root, TraceSpanKind::kEstimate, 0),
                 .parent_id = root};
  spans_->Record(std::move(span.Int("ordinal", ordinal).Num("cost", cost)));
}

void BatchObservation::Finish() {
  if (depth_gauge_ != nullptr) depth_gauge_->Set(0);
  if (spans_.has_value()) {
    for (const TraceSpan& span :
         spans_->Drain([](const TraceSpan& a, const TraceSpan& b) {
           if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
           return a.span_id < b.span_id;
         })) {
      // Only top-level search spans feed the /tracez ring.
      if (recorder_ != nullptr && span.name == "search") {
        recorder_->RecordFinished(span);
      }
      if (trace_ != nullptr) trace_->Emit(span);
    }
  }
  if (logs_.has_value()) {
    const std::vector<ExplainSearchLog> logs = logs_->Drain(
        [](const ExplainSearchLog& a, const ExplainSearchLog& b) {
          return a.ordinal < b.ordinal;
        });
    for (const ExplainSearchLog& log : logs) {
      if (explain_recorder_ != nullptr) explain_recorder_->RecordSearch(log);
      if (explain_ != nullptr) explain_->Emit(log);
    }
    FlushExplainMetrics(metrics_, logs);
  }
  if (pool_ != nullptr && metrics_ != nullptr) {
    const WorkStealingPool::SchedStats after = pool_->stats();
    if (Counter* c = metrics_->GetCounter(
            "disc_sched_tasks_total",
            "Work-stealing pool tasks executed (cost estimates and "
            "per-outlier searches)")) {
      c->Add(after.tasks - sched_before_.tasks);
    }
    if (Counter* c =
            metrics_->GetCounter("disc_sched_steals_total",
                                 "Tasks taken from another worker's deque")) {
      c->Add(after.steals - sched_before_.steals);
    }
    if (Counter* c = metrics_->GetCounter(
            "disc_sched_nested_chunks_total",
            "Nested bound-scan chunks executed by pool workers")) {
      c->Add(after.nested_chunks - sched_before_.nested_chunks);
    }
  }
  if (progress_ != nullptr) progress_->MarkDone();
}

BatchObservation::Search::Search(BatchObservation* batch, std::size_t ordinal)
    : batch_(batch),
      ordinal_(ordinal),
      trace_id_(batch->spans_.has_value() || batch->logs_.has_value()
                    ? DeriveTraceId(batch->batch_seed_, ordinal)
                    : 0),
      root_span_(batch->spans_.has_value()
                     ? DeriveSpanId(trace_id_, TraceSpanKind::kRoot, 0)
                     : 0) {}

SearchObserver* BatchObservation::Search::Start() {
  if (batch_->recorder_ != nullptr) {
    active_slot_ = batch_->recorder_->BeginActive(
        "search", trace_id_,
        DeriveSpanId(root_span_, TraceSpanKind::kSearch, 0), TraceNowNs());
  }
  if (!batch_->spans_.has_value() && !batch_->logs_.has_value() &&
      batch_->profiler_ == nullptr) {
    return nullptr;
  }
  return &observer_.emplace(SearchObserver{
      .spans = batch_->spans_.has_value() ? &*batch_->spans_ : nullptr,
      .profiler = batch_->profiler_,
      .capture = batch_->logs_.has_value(),
      .trace_id = trace_id_,
      .search_span_id = DeriveSpanId(root_span_, TraceSpanKind::kSearch, 0)});
}

void BatchObservation::Search::Finish(SaveResult* saved) {
  const SaveResult& result = *saved;
  saved->trace_id = trace_id_;
  if (observer_.has_value()) observer_->FlushPhases();
  if (batch_->recorder_ != nullptr) batch_->recorder_->EndActive(active_slot_);
  if (observer_.has_value() && batch_->logs_.has_value()) {
    // The search's events, the verdict, and the SearchStats mirrors
    // scripts/analyze_explain.py cross-checks the events against.
    batch_->logs_->Record(ExplainSearchLog{
        .ordinal = ordinal_,
        .trace_id = trace_id_,
        .algo = batch_->algo_,
        .termination = SaveTerminationName(result.termination),
        .feasible = result.feasible,
        .final_cost = result.feasible
                          ? result.cost
                          : std::numeric_limits<double>::quiet_NaN(),
        .global_lb = result.lower_bound,
        .wall_nanos = result.stats.wall_nanos,
        .visited_sets = result.stats.visited_sets,
        .lb_prunes = result.stats.lb_prunes,
        .nodes_expanded = result.stats.nodes_expanded,
        .revert_refines = result.stats.revert_refines,
        .abandoned_scans = observer_->abandoned_scans,
        .dropped_events = observer_->dropped_events,
        .events = std::move(observer_->events)});
  }
  if (batch_->progress_ != nullptr) {
    batch_->progress_->RecordOutlier(result.termination,
                                     result.stats.wall_nanos);
  }
  if (batch_->depth_gauge_ != nullptr) {
    batch_->depth_gauge_->Set(
        static_cast<std::int64_t>(batch_->pool_->queue_depth()));
  }
  if (batch_->spans_.has_value()) {
    // `ordinal` keys the span back to its input position.
    TraceSpan span{.name = "search",
                   .start_ns = result.stats.start_ns,
                   .duration_ns = result.stats.wall_nanos,
                   .trace_id = trace_id_,
                   .span_id =
                       DeriveSpanId(root_span_, TraceSpanKind::kSearch, 0),
                   .parent_id = root_span_};
    span.Int("ordinal", ordinal_)
        .Str("termination", SaveTerminationName(result.termination));
    result.stats.AttachTo(&span);
    batch_->spans_->Record(std::move(span));
  }
}

}  // namespace disc
