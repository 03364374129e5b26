#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/trace.h"

namespace perfbench {

std::string BenchSpan::layer() const {
  const char* slash = std::strchr(name, '/');
  return slash == nullptr ? std::string(name) : std::string(name, slash);
}

std::uint64_t SpanRecorder::Begin(const char* name) {
  BenchSpan span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.run_id = run_id_;
  span.start_ns = disc::TraceNowNs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return span.id;
}

void SpanRecorder::End(std::uint64_t id) {
  const std::uint64_t now = disc::TraceNowNs();
  // Scopes close in LIFO order; the id check documents the invariant.
  if (open_.empty() || spans_[open_.back()].id != id) return;
  spans_[open_.back()].end_ns = now;
  open_.pop_back();
}

const BenchSpan* SpanRecorder::Find(std::uint64_t id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

std::uint64_t SpanRecorder::SelfNs(const BenchSpan& span) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> children;
  for (const BenchSpan& s : spans_) {
    if (s.parent != span.id) continue;
    children.emplace_back(std::max(s.start_ns, span.start_ns),
                          std::min(s.end_ns, span.end_ns));
  }
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = span.start_ns;
  for (const auto& [begin, end] : children) {
    const std::uint64_t from = std::max(begin, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  const std::uint64_t duration = span.duration_ns();
  return covered >= duration ? 0 : duration - covered;
}

std::map<std::string, LayerTime> SpanRecorder::ByLayer(
    std::uint64_t root) const {
  // Spans are appended in open order, so every descendant of `root` sits
  // after it and its parent is already marked by the time we reach it.
  std::vector<bool> inside(spans_.size() + 1, false);
  std::map<std::string, LayerTime> layers;
  for (const BenchSpan& s : spans_) {
    if (s.id == root) {
      inside[s.id] = true;
    } else if (s.parent != 0 && inside[s.parent]) {
      inside[s.id] = true;
    }
    if (!inside[s.id]) continue;
    LayerTime& t = layers[s.layer()];
    t.self_ns += SelfNs(s);
    ++t.spans;
  }
  return layers;
}

SpanSum SpanRecorder::Sum(const char* name) const {
  SpanSum sum;
  for (const BenchSpan& s : spans_) {
    if (std::strcmp(s.name, name) != 0) continue;
    ++sum.count;
    sum.total_ns += s.duration_ns();
  }
  return sum;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const BenchSpan& s : spans_) {
    std::fprintf(f,
                 "{\"run_id\":%llu,\"id\":%llu,\"parent\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 static_cast<unsigned long long>(s.run_id),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
