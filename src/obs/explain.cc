#include "obs/explain.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <utility>

#include "common/json_writer.h"
#include "common/metrics.h"

namespace disc {

namespace {

std::atomic<ExplainRecorder*> g_explain_recorder{nullptr};

constexpr ExplainAction kAllActions[] = {
    ExplainAction::kExpand,          ExplainAction::kPruneLb,
    ExplainAction::kPruneBudget,     ExplainAction::kInfeasible,
    ExplainAction::kIncumbentUpdate, ExplainAction::kMemoHit,
    ExplainAction::kRevertRefine,    ExplainAction::kPruneDominated,
};

void AppendEventJson(JsonWriter& json, const ExplainEvent& event) {
  json.BeginObject();
  json.Key("x").Uint(event.x_bits);
  json.Key("action").String(ExplainActionName(event.action));
  if (event.seed) json.Key("seed").Bool(true);
  if (std::isfinite(event.lb)) json.Key("lb").Number(event.lb);
  if (std::isinf(event.lb) && event.lb > 0) {
    json.Key("lb_infeasible").Bool(true);
  }
  if (std::isfinite(event.ub)) json.Key("ub").Number(event.ub);
  const double gap = event.gap();
  if (std::isfinite(gap)) json.Key("gap").Number(gap);
  if (std::isfinite(event.incumbent)) {
    json.Key("incumbent").Number(event.incumbent);
  }
  if (event.donor_row != kExplainNoDonor) {
    json.Key("donor_row").Uint(event.donor_row);
  }
  json.EndObject();
}

void AppendSummaryJson(JsonWriter& json, const ExplainSummary& summary) {
  json.BeginObject();
  json.Key("actions").BeginObject();
  for (ExplainAction action : kAllActions) {
    json.Key(ExplainActionName(action))
        .Uint(summary.action_counts[static_cast<std::size_t>(action)]);
  }
  json.EndObject();
  json.Key("first_feasible_depth").Int(summary.first_feasible_depth);
  json.Key("timeline").BeginArray();
  for (const ExplainIncumbentStep& step : summary.timeline) {
    json.BeginObject();
    json.Key("event").Uint(step.event_index);
    json.Key("depth").Uint(step.depth);
    json.Key("cost").Number(step.cost);
    json.EndObject();
  }
  json.EndArray();
  if (std::isfinite(summary.max_lb_over_cost)) {
    json.Key("max_lb_over_cost").Number(summary.max_lb_over_cost);
  }
  if (std::isfinite(summary.first_ub_over_cost)) {
    json.Key("first_ub_over_cost").Number(summary.first_ub_over_cost);
  }
  json.Key("bound_gap").BeginObject();
  json.Key("events").Uint(summary.gap_events);
  if (std::isfinite(summary.min_gap)) json.Key("min").Number(summary.min_gap);
  if (std::isfinite(summary.mean_gap)) {
    json.Key("mean").Number(summary.mean_gap);
  }
  json.EndObject();
  json.EndObject();
}

/// Events the summary counted: one action each.
std::uint64_t EventCount(const ExplainSummary& summary) {
  std::uint64_t events = 0;
  for (std::uint64_t count : summary.action_counts) events += count;
  return events;
}

/// The /explainz per-search entry: the log's identity fields plus its
/// summary.
void AppendRecorderEntryJson(JsonWriter& json, const ExplainSearchLog& log,
                             const ExplainSummary& summary) {
  json.BeginObject();
  json.Key("ordinal").Uint(log.ordinal);
  json.Key("trace_id").Uint(log.trace_id);
  json.Key("algo").String(log.algo);
  json.Key("termination").String(log.termination);
  json.Key("feasible").Bool(log.feasible);
  if (std::isfinite(log.final_cost)) json.Key("cost").Number(log.final_cost);
  json.Key("wall_nanos").Uint(log.wall_nanos);
  json.Key("events").Uint(EventCount(summary));
  json.Key("dropped_events").Uint(log.dropped_events);
  json.Key("abandoned_scans").Uint(log.abandoned_scans);
  json.Key("summary");
  AppendSummaryJson(json, summary);
  json.EndObject();
}

}  // namespace

const char* ExplainActionName(ExplainAction action) {
  switch (action) {
    case ExplainAction::kExpand:
      return "expand";
    case ExplainAction::kPruneLb:
      return "prune_lb";
    case ExplainAction::kPruneBudget:
      return "prune_budget";
    case ExplainAction::kInfeasible:
      return "infeasible";
    case ExplainAction::kIncumbentUpdate:
      return "incumbent_update";
    case ExplainAction::kMemoHit:
      return "memo_hit";
    case ExplainAction::kRevertRefine:
      return "revert_refine";
    case ExplainAction::kPruneDominated:
      return "prune_dominated";
  }
  return "unknown";
}

double ExplainEvent::gap() const {
  if (!std::isfinite(lb) || !std::isfinite(ub)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return ub - lb;
}

// ---------------------------------------------------------------------------
// Summarize
// ---------------------------------------------------------------------------

ExplainSummary Summarize(const ExplainSearchLog& log) {
  ExplainSummary summary;
  double max_lb = std::numeric_limits<double>::quiet_NaN();
  double first_ub = std::numeric_limits<double>::quiet_NaN();
  double gap_sum = 0;
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const ExplainEvent& event = log.events[i];
    ++summary.action_counts[static_cast<std::size_t>(event.action)];
    if (event.action == ExplainAction::kIncumbentUpdate) {
      // |X|, the node's B&B depth.
      const std::uint64_t depth = std::popcount(event.x_bits);
      if (summary.first_feasible_depth < 0) {
        summary.first_feasible_depth = static_cast<std::int64_t>(depth);
      }
      ExplainIncumbentStep step;
      step.event_index = i;
      step.depth = depth;
      step.cost = event.incumbent;
      if (summary.timeline.size() < kExplainTimelineCap) {
        summary.timeline.push_back(step);
      } else {
        // Keep the earliest adoptions and always the final one.
        summary.timeline.back() = step;
      }
    }
    if (std::isfinite(event.lb) && !(event.lb <= max_lb)) max_lb = event.lb;
    if (std::isfinite(event.ub) && !std::isfinite(first_ub)) {
      first_ub = event.ub;
    }
    const double gap = event.gap();
    if (std::isfinite(gap)) {
      ++summary.gap_events;
      gap_sum += gap;
      if (!(gap >= summary.min_gap)) summary.min_gap = gap;
    }
  }
  if (summary.gap_events > 0) {
    summary.mean_gap = gap_sum / static_cast<double>(summary.gap_events);
  }
  if (log.feasible && std::isfinite(log.final_cost) && log.final_cost > 0) {
    if (std::isfinite(max_lb)) {
      summary.max_lb_over_cost = max_lb / log.final_cost;
    }
    if (std::isfinite(first_ub)) {
      summary.first_ub_over_cost = first_ub / log.final_cost;
    }
  }
  return summary;
}

// ---------------------------------------------------------------------------
// JSONL serialization + sink
// ---------------------------------------------------------------------------

void AppendExplainSearchJson(JsonWriter& json, const ExplainSearchLog& log) {
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("ordinal").Uint(log.ordinal);
  json.Key("trace_id").Uint(log.trace_id);
  json.Key("algo").String(log.algo);
  json.Key("termination").String(log.termination);
  json.Key("feasible").Bool(log.feasible);
  if (std::isfinite(log.final_cost)) json.Key("cost").Number(log.final_cost);
  json.Key("global_lb").Number(log.global_lb);
  json.Key("wall_nanos").Uint(log.wall_nanos);
  json.Key("visited_sets").Uint(log.visited_sets);
  json.Key("lb_prunes").Uint(log.lb_prunes);
  json.Key("nodes_expanded").Uint(log.nodes_expanded);
  json.Key("revert_refines").Uint(log.revert_refines);
  json.Key("abandoned_scans").Uint(log.abandoned_scans);
  json.Key("dropped_events").Uint(log.dropped_events);
  json.Key("events").BeginArray();
  for (const ExplainEvent& event : log.events) AppendEventJson(json, event);
  json.EndArray();
  json.Key("summary");
  AppendSummaryJson(json, Summarize(log));
  json.EndObject();
}

ExplainJsonlSink::ExplainJsonlSink(const std::string& path)
    : JsonlSink(path, "explain",
                [](JsonWriter& json, const ExplainSearchLog& log) {
                  AppendExplainSearchJson(json, log);
                }) {}

// ---------------------------------------------------------------------------
// ExplainRecorder
// ---------------------------------------------------------------------------

ExplainRecorder::ExplainRecorder(std::size_t recent_capacity,
                                 std::size_t slowest_capacity)
    : slowest_capacity_(slowest_capacity > 0 ? slowest_capacity : 1),
      recent_(recent_capacity) {}

void ExplainRecorder::RecordSearch(const ExplainSearchLog& log) {
  Entry entry{.log = log, .summary = Summarize(log)};
  entry.log.events = std::vector<ExplainEvent>();

  std::lock_guard<std::mutex> lock(mu_);
  ++searches_;
  events_ += log.events.size();
  dropped_events_ += log.dropped_events;
  abandoned_scans_ += log.abandoned_scans;
  for (std::size_t a = 0; a < kExplainActionCount; ++a) {
    action_totals_[a] += entry.summary.action_counts[a];
  }
  recent_.Push(entry);
  // Slowest table: insert sorted by wall time, descending; ties keep the
  // earlier entry (stable for repeated scrapes).
  auto pos = std::upper_bound(slowest_.begin(), slowest_.end(), entry,
                              [](const Entry& a, const Entry& b) {
                                return a.log.wall_nanos > b.log.wall_nanos;
                              });
  if (pos != slowest_.end() || slowest_.size() < slowest_capacity_) {
    slowest_.insert(pos, std::move(entry));
    if (slowest_.size() > slowest_capacity_) slowest_.pop_back();
  }
}

std::string ExplainRecorder::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("attached").Bool(true);
  json.Key("searches").Uint(searches_);
  json.Key("events").Uint(events_);
  json.Key("dropped_events").Uint(dropped_events_);
  json.Key("abandoned_scans").Uint(abandoned_scans_);
  json.Key("actions").BeginObject();
  for (ExplainAction action : kAllActions) {
    json.Key(ExplainActionName(action))
        .Uint(action_totals_[static_cast<std::size_t>(action)]);
  }
  json.EndObject();
  json.Key("recent").BeginArray();
  recent_.ForEach([&](const Entry& entry) {
    AppendRecorderEntryJson(json, entry.log, entry.summary);
  });
  json.EndArray();
  json.Key("slowest").BeginArray();
  for (const Entry& entry : slowest_) {
    AppendRecorderEntryJson(json, entry.log, entry.summary);
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

void ExplainRecorder::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  searches_ = 0;
  events_ = 0;
  dropped_events_ = 0;
  abandoned_scans_ = 0;
  action_totals_.fill(0);
  recent_.Clear();
  slowest_.clear();
}

ExplainRecorder* GlobalExplainRecorder() {
  return g_explain_recorder.load(std::memory_order_acquire);
}

void AttachGlobalExplainRecorder(ExplainRecorder* recorder) {
  g_explain_recorder.store(recorder, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Batch metrics
// ---------------------------------------------------------------------------

void FlushExplainMetrics(MetricsRegistry* metrics,
                         const std::vector<ExplainSearchLog>& logs) {
  if (metrics == nullptr || logs.empty()) return;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
  std::uint64_t abandoned = 0;
  std::array<std::uint64_t, kExplainActionCount> actions{};
  for (const ExplainSearchLog& log : logs) {
    events += log.events.size();
    dropped += log.dropped_events;
    abandoned += log.abandoned_scans;
    for (const ExplainEvent& event : log.events) {
      ++actions[static_cast<std::size_t>(event.action)];
    }
  }
  if (Counter* c = metrics->GetCounter(
          "disc_explain_searches_total",
          "Searches whose decision log was recorded")) {
    c->Add(logs.size());
  }
  if (events > 0) {
    if (Counter* c = metrics->GetCounter("disc_explain_events_total",
                                         "Decision events recorded")) {
      c->Add(events);
    }
  }
  if (dropped > 0) {
    if (Counter* c = metrics->GetCounter(
            "disc_explain_events_dropped_total",
            "Decision events beyond the per-search cap (counted, not "
            "stored)")) {
      c->Add(dropped);
    }
  }
  if (abandoned > 0) {
    if (Counter* c = metrics->GetCounter(
            "disc_explain_abandoned_scans_total",
            "Bound scans cut short by the budget layer during explained "
            "searches")) {
      c->Add(abandoned);
    }
  }
  for (ExplainAction action : kAllActions) {
    const std::uint64_t n = actions[static_cast<std::size_t>(action)];
    if (n == 0) continue;
    if (Counter* c = metrics->GetCounter(
            std::string("disc_explain_action_") + ExplainActionName(action) +
            "_total")) {
      c->Add(n);
    }
  }
  if (Histogram* h = metrics->GetHistogram(
          "disc_save_bound_gap",
          {1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0},
          "Prop-5 minus Prop-3 bound gap per fully bounded search node")) {
    for (const ExplainSearchLog& log : logs) {
      for (const ExplainEvent& event : log.events) {
        const double gap = event.gap();
        if (std::isfinite(gap)) h->ObserveWithExemplar(gap, log.trace_id);
      }
    }
  }
}

}  // namespace disc
