#include "common/trace.h"

#include <algorithm>
#include <chrono>

#include "common/json_writer.h"

namespace disc {

namespace {

/// splitmix64 finalizer (Steele et al.); the whole id scheme rides on it.
std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::atomic<std::uint64_t> g_batch_counter{1};

std::atomic<WallPhaseProfiler*> g_wall_profiler{nullptr};
std::atomic<TraceRecorder*> g_trace_recorder{nullptr};

}  // namespace

std::uint64_t TraceNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Deterministic id derivation
// ---------------------------------------------------------------------------

std::uint64_t TraceMix(std::uint64_t seed, std::uint64_t value) {
  // xor-fold the value in before finalizing; the odd multiplier keeps
  // (seed, value) pairs from aliasing (TraceMix(a, b) != TraceMix(b, a)).
  return SplitMix64(seed ^ (value * 0xff51afd7ed558ccdULL + 1));
}

std::uint64_t NextTraceBatchSeed() {
  return SplitMix64(
      g_batch_counter.fetch_add(1, std::memory_order_relaxed));
}

void SetTraceBatchCounterForTest(std::uint64_t value) {
  g_batch_counter.store(value, std::memory_order_relaxed);
}

std::uint64_t DeriveTraceId(std::uint64_t batch_seed, std::uint64_t ordinal) {
  std::uint64_t id = TraceMix(batch_seed, ordinal);
  return id != 0 ? id : 1;  // 0 is reserved for "untraced"
}

std::uint64_t DeriveSpanId(std::uint64_t parent, TraceSpanKind kind,
                           std::uint64_t ordinal) {
  std::uint64_t id =
      TraceMix(TraceMix(parent, static_cast<std::uint64_t>(kind)), ordinal);
  return id != 0 ? id : 1;
}

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kIndexQuery:
      return "index_query";
    case TracePhase::kBoundsScan:
      return "bounds_scan";
    case TracePhase::kDcacheFill:
      return "dcache_fill";
    case TracePhase::kEstimate:
      return "estimate";
    case TracePhase::kVerdict:
      return "verdict";
    case TracePhase::kStealIdle:
      return "steal_idle";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// WallPhaseProfiler
// ---------------------------------------------------------------------------

WallPhaseProfiler::WallPhaseProfiler() {
  for (Shard& shard : shards_) {
    for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
      shard.ns[p].store(0, std::memory_order_relaxed);
      shard.count[p].store(0, std::memory_order_relaxed);
    }
  }
}

void WallPhaseProfiler::Add(TracePhase phase, std::uint64_t ns) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  const std::size_t p = static_cast<std::size_t>(phase);
  shard.ns[p].fetch_add(ns, std::memory_order_relaxed);
  shard.count[p].fetch_add(1, std::memory_order_relaxed);
}

std::array<WallPhaseProfiler::PhaseTotal, kTracePhaseCount>
WallPhaseProfiler::SumRaw() const {
  std::array<PhaseTotal, kTracePhaseCount> totals{};
  for (const Shard& shard : shards_) {
    for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
      totals[p].ns += shard.ns[p].load(std::memory_order_relaxed);
      totals[p].count += shard.count[p].load(std::memory_order_relaxed);
    }
  }
  return totals;
}

std::array<WallPhaseProfiler::PhaseTotal, kTracePhaseCount>
WallPhaseProfiler::Snapshot() const {
  std::array<PhaseTotal, kTracePhaseCount> totals = SumRaw();
  std::lock_guard<std::mutex> lock(baseline_mu_);
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    // A shard add can land between the sum and the baseline snapshot;
    // saturate rather than wrap.
    totals[p].ns -= std::min(totals[p].ns, baseline_[p].ns);
    totals[p].count -= std::min(totals[p].count, baseline_[p].count);
  }
  return totals;
}

void WallPhaseProfiler::Reset() {
  std::array<PhaseTotal, kTracePhaseCount> totals = SumRaw();
  std::lock_guard<std::mutex> lock(baseline_mu_);
  baseline_ = totals;
}

std::string WallPhaseProfiler::ToJson() const {
  const std::array<PhaseTotal, kTracePhaseCount> totals = Snapshot();
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("phases").BeginObject();
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    json.Key(TracePhaseName(static_cast<TracePhase>(p))).BeginObject();
    json.Key("wall_ns").Uint(totals[p].ns);
    json.Key("count").Uint(totals[p].count);
    json.EndObject();
  }
  json.EndObject();
  // Folded-stack flamegraph lines (flamegraph.pl / speedscope "folded"
  // input): "root;phase value". steal_idle is scheduler time, not save
  // time, so it folds under its own root.
  json.Key("folded").BeginArray();
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    const TracePhase phase = static_cast<TracePhase>(p);
    const char* root =
        phase == TracePhase::kStealIdle ? "disc_pool" : "disc_save";
    json.String(std::string(root) + ";" + TracePhaseName(phase) + " " +
                std::to_string(totals[p].ns));
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

WallPhaseProfiler* GlobalWallProfiler() {
  return g_wall_profiler.load(std::memory_order_acquire);
}

void AttachGlobalWallProfiler(WallPhaseProfiler* profiler) {
  g_wall_profiler.store(profiler, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TraceRecorder::TraceRecorder(std::size_t recent_capacity,
                             std::uint64_t slow_threshold_ns)
    : slow_threshold_ns_(slow_threshold_ns),
      epoch_ns_(TraceNowNs()),
      recent_(recent_capacity) {}

void TraceRecorder::RecordFinished(const TraceSpan& span) {
  if (span.duration_ns < slow_threshold_ns_) return;
  std::lock_guard<std::mutex> lock(mu_);
  recent_.Push(span);
}

int TraceRecorder::BeginActive(const char* name, std::uint64_t trace_id,
                               std::uint64_t span_id, std::uint64_t start_ns) {
  for (std::size_t i = 0; i < kActiveSlots; ++i) {
    ActiveSlot& slot = active_[i];
    std::uint64_t expected = 0;
    if (slot.state.compare_exchange_strong(expected, 1,
                                           std::memory_order_acq_rel)) {
      slot.name.store(name, std::memory_order_relaxed);
      slot.trace_id.store(trace_id, std::memory_order_relaxed);
      slot.span_id.store(span_id, std::memory_order_relaxed);
      slot.start_ns.store(start_ns, std::memory_order_relaxed);
      slot.state.store(2, std::memory_order_release);
      return static_cast<int>(i);
    }
  }
  return -1;  // table full: this search goes unlisted (best-effort)
}

void TraceRecorder::EndActive(int slot) {
  if (slot < 0) return;
  active_[static_cast<std::size_t>(slot)].state.store(
      0, std::memory_order_release);
}

std::string TraceRecorder::ToJson() const {
  const std::uint64_t now = TraceNowNs();
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("recent_capacity").Uint(recent_.capacity());
  json.Key("slow_threshold_ns").Uint(slow_threshold_ns_);
  json.Key("recent").BeginArray();
  {
    std::lock_guard<std::mutex> lock(mu_);
    recent_.ForEach([&](const TraceSpan& span) {
      AppendTraceSpanJson(json, span, epoch_ns_);
    });
  }
  json.EndArray();
  json.Key("active").BeginArray();
  for (const ActiveSlot& slot : active_) {
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    // The slot can be reused while we read it; the atomic fields keep the
    // read race-free, and a torn (reused) entry is acceptable noise on a
    // best-effort debug endpoint.
    const char* name = slot.name.load(std::memory_order_relaxed);
    const std::uint64_t start = slot.start_ns.load(std::memory_order_relaxed);
    json.BeginObject();
    json.Key("span").String(name != nullptr ? name : "unknown");
    json.Key("trace_id").Uint(slot.trace_id.load(std::memory_order_relaxed));
    json.Key("span_id").Uint(slot.span_id.load(std::memory_order_relaxed));
    json.Key("t_ns").Uint(start >= epoch_ns_ ? start - epoch_ns_ : 0);
    json.Key("elapsed_ns").Uint(now >= start ? now - start : 0);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

TraceRecorder* GlobalTraceRecorder() {
  return g_trace_recorder.load(std::memory_order_acquire);
}

void AttachGlobalTraceRecorder(TraceRecorder* recorder) {
  g_trace_recorder.store(recorder, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

void AppendTraceSpanJson(JsonWriter& json, const TraceSpan& span,
                         std::uint64_t epoch_ns) {
  json.BeginObject();
  json.Key("span").String(span.name);
  // Spans that started before the sink existed clamp to the epoch rather
  // than wrapping the unsigned subtraction.
  json.Key("t_ns").Uint(span.start_ns >= epoch_ns ? span.start_ns - epoch_ns
                                                  : 0);
  json.Key("dur_ns").Uint(span.duration_ns);
  json.Key("trace_id").Uint(span.trace_id);
  json.Key("span_id").Uint(span.span_id);
  json.Key("parent_id").Uint(span.parent_id);
  for (const auto& [key, value] : span.str_attrs) json.Key(key).String(value);
  for (const auto& [key, value] : span.int_attrs) json.Key(key).Uint(value);
  for (const auto& [key, value] : span.num_attrs) json.Key(key).Number(value);
  json.EndObject();
}

JsonlTraceSink::JsonlTraceSink(std::string path)
    : JsonlSink(std::move(path), "trace",
                [epoch_ns = TraceNowNs()](JsonWriter& json,
                                          const TraceSpan& span) {
                  AppendTraceSpanJson(json, span, epoch_ns);
                }) {}

}  // namespace disc
