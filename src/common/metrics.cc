#include "common/metrics.h"

#include <algorithm>

#include "common/cpu_features.h"
#include "common/json_writer.h"
#include "common/stringutil.h"

namespace disc {

namespace {

std::atomic<MetricsRegistry*> g_global_metrics{nullptr};

/// Formats a double the way the Prometheus text format expects (`+Inf` for
/// the unbounded bucket, shortest round-trip otherwise is overkill — %g is
/// what common client libraries emit).
std::string PromDouble(double v) { return StrFormat("%g", v); }

}  // namespace

std::string PromEscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string PromEscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

Histogram::Histogram(std::string name, std::vector<double> bucket_bounds)
    : name_(std::move(name)), bounds_(std::move(bucket_bounds)),
      shards_(kShards) {
  std::sort(bounds_.begin(), bounds_.end());
  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size());
  }
  exemplars_.resize(bounds_.size() + 1);  // trailing slot = +Inf bucket
}

void Histogram::Observe(double value) {
  Shard& shard = shards_[ThisThreadShard(kShards)];
  // First bound >= value; observations beyond the last bound land only in
  // the implicit +Inf bucket (count minus the cumulative last bound).
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  if (it != bounds_.end()) {
    std::size_t b = static_cast<std::size_t>(it - bounds_.begin());
    shard.buckets[b].fetch_add(1, std::memory_order_relaxed);
  }
  shard.count.fetch_add(1, std::memory_order_relaxed);
  double expected = shard.sum.load(std::memory_order_relaxed);
  while (!shard.sum.compare_exchange_weak(expected, expected + value,
                                          std::memory_order_relaxed)) {
  }
}

void Histogram::ObserveWithExemplar(double value, std::uint64_t trace_id) {
  Observe(value);
  if (trace_id == 0) return;
  auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const std::size_t slot = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  exemplars_[slot] = Exemplar{value, trace_id};
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size(), 0);
  {
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    snap.exemplars = exemplars_;
  }
  for (const Shard& s : shards_) {
    for (std::size_t b = 0; b < bounds_.size(); ++b) {
      snap.counts[b] += s.buckets[b].load(std::memory_order_acquire);
    }
    snap.count += s.count.load(std::memory_order_acquire);
    snap.sum += s.sum.load(std::memory_order_acquire);
  }
  // Convert per-bucket tallies into cumulative `le` counts.
  for (std::size_t b = 1; b < snap.counts.size(); ++b) {
    snap.counts[b] += snap.counts[b - 1];
  }
  return snap;
}

void MetricsRegistry::RememberHelp(const std::string& name,
                                   const std::string& help) {
  if (!help.empty() && help_.count(name) == 0) help_[name] = help;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) != 0 || histograms_.count(name) != 0) return nullptr;
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>(name)).first;
  }
  RememberHelp(name, help);
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || histograms_.count(name) != 0) {
    return nullptr;
  }
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>(name)).first;
  }
  RememberHelp(name, help);
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bucket_bounds,
                                         const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) != 0 || gauges_.count(name) != 0) return nullptr;
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::make_unique<Histogram>(
                                name, std::move(bucket_bounds)))
             .first;
  }
  RememberHelp(name, help);
  return it->second.get();
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("schema_version").Int(1);
  json.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json.Key(name).Uint(counter->Value());
  }
  json.EndObject();
  json.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json.Key(name).Int(gauge->Value());
  }
  json.EndObject();
  json.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    json.Key(name).BeginObject();
    json.Key("count").Uint(snap.count);
    json.Key("sum").Number(snap.sum);
    json.Key("buckets").BeginArray();
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      json.BeginObject();
      json.Key("le").Number(snap.bounds[b]);
      json.Key("count").Uint(snap.counts[b]);
      json.EndObject();
    }
    json.EndArray();
    bool any_exemplar = false;
    for (const Histogram::Exemplar& e : snap.exemplars) {
      if (e.trace_id != 0) any_exemplar = true;
    }
    if (any_exemplar) {
      // One representative observation per populated bucket, linking the
      // bucket back to the trace id of a span tree that landed in it. The
      // trailing slot is the implicit +Inf bucket.
      json.Key("exemplars").BeginArray();
      for (std::size_t b = 0; b < snap.exemplars.size(); ++b) {
        const Histogram::Exemplar& e = snap.exemplars[b];
        if (e.trace_id == 0) continue;
        json.BeginObject();
        if (b < snap.bounds.size()) {
          json.Key("le").Number(snap.bounds[b]);
        } else {
          json.Key("le").String("+Inf");
        }
        json.Key("value").Number(e.value);
        json.Key("trace_id").Uint(e.trace_id);
        json.EndObject();
      }
      json.EndArray();
    }
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  return json.str();
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  // A name may carry a label suffix (`disc_http_requests_total{path="/x"}`);
  // the metric family is the part before the brace, and HELP/TYPE lines are
  // emitted once per family (labeled variants sort adjacent in the map).
  const auto base_of = [](const std::string& name) {
    const std::size_t brace = name.find('{');
    return brace == std::string::npos ? name : name.substr(0, brace);
  };
  const auto help_line = [this, &out](const std::string& base,
                                      const std::string& name) {
    auto it = help_.find(base);
    if (it == help_.end()) it = help_.find(name);
    if (it != help_.end()) {
      out += "# HELP " + base + " " + PromEscapeHelp(it->second) + "\n";
    }
  };
  std::string last_base;
  for (const auto& [name, counter] : counters_) {
    const std::string base = base_of(name);
    if (base != last_base) {
      help_line(base, name);
      out += "# TYPE " + base + " counter\n";
      last_base = base;
    }
    out += name + " " + StrFormat("%llu",
                                  static_cast<unsigned long long>(
                                      counter->Value())) +
           "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    help_line(name, name);
    out += "# TYPE " + name + " gauge\n";
    out += name + " " +
           StrFormat("%lld", static_cast<long long>(gauge->Value())) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    Histogram::Snapshot snap = histogram->Snap();
    help_line(name, name);
    out += "# TYPE " + name + " histogram\n";
    for (std::size_t b = 0; b < snap.bounds.size(); ++b) {
      out += name + "_bucket{le=\"" +
             PromEscapeLabelValue(PromDouble(snap.bounds[b])) + "\"} " +
             StrFormat("%llu",
                       static_cast<unsigned long long>(snap.counts[b])) +
             "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           StrFormat("%llu", static_cast<unsigned long long>(snap.count)) +
           "\n";
    out += name + "_sum " + StrFormat("%.9g", snap.sum) + "\n";
    out += name + "_count " +
           StrFormat("%llu", static_cast<unsigned long long>(snap.count)) +
           "\n";
  }
  return out;
}

MetricsRegistry* GlobalMetrics() {
  return g_global_metrics.load(std::memory_order_acquire);
}

void AttachGlobalMetrics(MetricsRegistry* registry) {
  g_global_metrics.store(registry, std::memory_order_release);
  if (registry != nullptr) {
    // The dispatch tier is process-wide and latched, so export it once at
    // attach time: 0 = scalar, 2 = avx2 (common/cpu_features.h).
    registry
        ->GetGauge("disc_simd_tier",
                   "Active SIMD dispatch tier of the distance kernels "
                   "(0=scalar, 2=avx2)")
        ->Set(static_cast<std::int64_t>(ActiveSimdTier()));
  }
}

IndexQueryMetrics IndexQueryMetrics::For(const char* impl) {
  IndexQueryMetrics metrics;
  MetricsRegistry* registry = GlobalMetrics();
  if (registry == nullptr) return metrics;
  const std::string prefix = std::string("disc_index_") + impl + "_";
  metrics.range_queries = registry->GetCounter(prefix + "range_queries_total");
  metrics.count_queries = registry->GetCounter(prefix + "count_queries_total");
  metrics.knn_queries = registry->GetCounter(prefix + "knn_queries_total");
  return metrics;
}

}  // namespace disc
