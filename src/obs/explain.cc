#include "obs/explain.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
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

/// The size of the attribute set encoded in `bits` (the node's B&B depth).
std::uint64_t PopCount(std::uint64_t bits) {
  std::uint64_t n = 0;
  while (bits != 0) {
    bits &= bits - 1;
    ++n;
  }
  return n;
}

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

/// The /explainz per-search entry: the summary plus its identity fields.
void AppendRecorderEntryJson(JsonWriter& json, const ExplainSummary& summary) {
  json.BeginObject();
  json.Key("ordinal").Uint(summary.ordinal);
  json.Key("trace_id").Uint(summary.trace_id);
  json.Key("algo").String(summary.algo);
  json.Key("termination").String(summary.termination);
  json.Key("feasible").Bool(summary.feasible);
  if (std::isfinite(summary.final_cost)) {
    json.Key("cost").Number(summary.final_cost);
  }
  json.Key("wall_nanos").Uint(summary.wall_nanos);
  json.Key("events").Uint(summary.events);
  json.Key("dropped_events").Uint(summary.dropped_events);
  json.Key("abandoned_scans").Uint(summary.abandoned_scans);
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
  summary.ordinal = log.ordinal;
  summary.trace_id = log.trace_id;
  summary.algo = log.algo;
  summary.termination = log.termination;
  summary.feasible = log.feasible;
  summary.final_cost = log.final_cost;
  summary.wall_nanos = log.wall_nanos;
  summary.events = log.events.size();
  summary.dropped_events = log.dropped_events;
  summary.abandoned_scans = log.abandoned_scans;

  double max_lb = std::numeric_limits<double>::quiet_NaN();
  double first_ub = std::numeric_limits<double>::quiet_NaN();
  double gap_sum = 0;
  for (std::size_t i = 0; i < log.events.size(); ++i) {
    const ExplainEvent& event = log.events[i];
    ++summary.action_counts[static_cast<std::size_t>(event.action)];
    if (event.action == ExplainAction::kIncumbentUpdate) {
      const std::uint64_t depth = PopCount(event.x_bits);
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
// ExplainCollector
// ---------------------------------------------------------------------------

ExplainCollector::ExplainCollector(std::size_t slots)
    : slots_(slots > 0 ? slots : 1) {}

void ExplainCollector::Record(std::size_t slot, ExplainSearchLog log) {
  slots_[slot < slots_.size() ? slot : slots_.size() - 1].logs.push_back(
      std::move(log));
}

std::vector<ExplainSearchLog> ExplainCollector::Drain() {
  std::vector<ExplainSearchLog> all;
  std::size_t total = 0;
  for (const Slot& slot : slots_) total += slot.logs.size();
  all.reserve(total);
  for (Slot& slot : slots_) {
    for (ExplainSearchLog& log : slot.logs) all.push_back(std::move(log));
    slot.logs.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const ExplainSearchLog& a, const ExplainSearchLog& b) {
              if (a.ordinal != b.ordinal) return a.ordinal < b.ordinal;
              return a.attempt < b.attempt;
            });
  return all;
}

// ---------------------------------------------------------------------------
// JSONL serialization + sink
// ---------------------------------------------------------------------------

void AppendExplainSearchJson(JsonWriter& json, const ExplainSearchLog& log) {
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("ordinal").Uint(log.ordinal);
  json.Key("trace_id").Uint(log.trace_id);
  json.Key("attempt").Uint(log.attempt);
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

ExplainJsonlSink::ExplainJsonlSink(std::string path)
    : path_(std::move(path)) {}

ExplainJsonlSink::~ExplainJsonlSink() { Close(); }

void ExplainJsonlSink::Emit(const ExplainSearchLog& log) {
  JsonWriter json;
  AppendExplainSearchJson(json, log);

  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  buffer_ += json.str();
  buffer_ += '\n';
}

bool ExplainJsonlSink::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !failed_;
}

Status ExplainJsonlSink::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return failed_ ? Status::Internal("explain write to " + path_ + " failed")
                   : Status::OK();
  }
  closed_ = true;
  if (path_.empty() || path_ == "-") {
    std::fwrite(buffer_.data(), 1, buffer_.size(), stdout);
    return Status::OK();
  }
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (f == nullptr) {
    failed_ = true;
    return Status::Internal("cannot open explain file " + path_);
  }
  std::size_t written = std::fwrite(buffer_.data(), 1, buffer_.size(), f);
  std::fclose(f);
  if (written != buffer_.size()) {
    failed_ = true;
    return Status::Internal("short write to explain file " + path_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ExplainRecorder
// ---------------------------------------------------------------------------

ExplainRecorder::ExplainRecorder(std::size_t recent_capacity,
                                 std::size_t slowest_capacity)
    : recent_capacity_(recent_capacity > 0 ? recent_capacity : 1),
      slowest_capacity_(slowest_capacity > 0 ? slowest_capacity : 1) {}

void ExplainRecorder::RecordSearch(const ExplainSearchLog& log) {
  ExplainSummary summary = Summarize(log);

  std::lock_guard<std::mutex> lock(mu_);
  ++searches_;
  events_ += summary.events;
  dropped_events_ += summary.dropped_events;
  abandoned_scans_ += summary.abandoned_scans;
  for (std::size_t a = 0; a < kExplainActionCount; ++a) {
    action_totals_[a] += summary.action_counts[a];
  }
  if (recent_.size() < recent_capacity_) {
    recent_.push_back(summary);
  } else {
    recent_[next_] = summary;
    next_ = (next_ + 1) % recent_capacity_;
  }
  // Slowest table: insert sorted by wall time, descending; ties keep the
  // earlier entry (stable for repeated scrapes).
  auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), summary,
      [](const ExplainSummary& a, const ExplainSummary& b) {
        return a.wall_nanos > b.wall_nanos;
      });
  if (pos != slowest_.end() || slowest_.size() < slowest_capacity_) {
    slowest_.insert(pos, std::move(summary));
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
  // Oldest first: the ring's oldest entry sits at next_.
  const std::size_t count = recent_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t idx =
        count < recent_capacity_ ? i : (next_ + i) % recent_capacity_;
    AppendRecorderEntryJson(json, recent_[idx]);
  }
  json.EndArray();
  json.Key("slowest").BeginArray();
  for (const ExplainSummary& summary : slowest_) {
    AppendRecorderEntryJson(json, summary);
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
  recent_.clear();
  next_ = 0;
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
