#include "common/log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "common/buffers.h"
#include "common/json_writer.h"
#include "common/stringutil.h"

namespace disc {

namespace {

std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<bool> g_log_to_stderr{true};
std::atomic<std::uint64_t> g_lines_emitted{0};

/// Sink state + ring buffer. One mutex for both: logging is a per-event
/// (not per-node) operation everywhere in this codebase, so a single short
/// critical section around the final hand-off is cheaper than lock-free
/// machinery — and it guarantees whole-line writes (no interleaving).
struct SinkState {
  std::mutex mu;
  std::function<void(const std::string&)> sink;  ///< null = stderr
  RecentRing<std::string> ring{kLogRingCapacity};
};

SinkState& Sinks() {
  static SinkState* state = new SinkState();  // leaked: usable at exit
  return *state;
}

/// Small stable per-thread id for log correlation: dense 1,2,3,... in
/// first-log order, far more readable than a hashed std::thread::id.
std::uint64_t ThisThreadLogId() {
  static std::atomic<std::uint64_t> next{1};
  static thread_local const std::uint64_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Strips the directory part: logs carry "datasets.cc:276", not the
/// build-machine absolute path.
std::string_view Basename(const char* file) {
  std::string_view path(file);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

void EmitLine(std::string line) {
  g_lines_emitted.fetch_add(1, std::memory_order_relaxed);
  SinkState& s = Sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sink) {
    s.sink(line);
  } else if (g_log_to_stderr.load(std::memory_order_relaxed)) {
    std::fputs(line.c_str(), stderr);
    std::fputc('\n', stderr);
  }
  s.ring.Push(std::move(line));
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  const std::string lower = ToLower(name);
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

void SetMinLogLevel(LogLevel level) {
  g_min_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(g_min_level.load(std::memory_order_relaxed));
}

void SetLogToStderr(bool enabled) {
  g_log_to_stderr.store(enabled, std::memory_order_relaxed);
}

void SetLogSink(std::function<void(const std::string&)> sink) {
  SinkState& s = Sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sink = std::move(sink);
}

std::vector<std::string> RecentLogs(std::size_t max_lines) {
  SinkState& s = Sinks();
  std::lock_guard<std::mutex> lock(s.mu);
  // The newest max_lines, oldest first.
  std::vector<std::string> out;
  s.ring.ForEach([&out](const std::string& line) { out.push_back(line); });
  out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(
                                         std::min(max_lines, out.size())));
  return out;
}

std::uint64_t LogLinesEmitted() {
  return g_lines_emitted.load(std::memory_order_relaxed);
}

LogRecord::LogRecord(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogRecord& LogRecord::Str(std::string_view key, std::string_view value) {
  JsonWriter json;
  json.String(std::string(value));
  fields_.emplace_back(std::string(key), json.str());
  return *this;
}

LogRecord& LogRecord::Int(std::string_view key, long long value) {
  fields_.emplace_back(std::string(key), StrFormat("%lld", value));
  return *this;
}

LogRecord& LogRecord::Uint(std::string_view key, unsigned long long value) {
  fields_.emplace_back(std::string(key), StrFormat("%llu", value));
  return *this;
}

LogRecord& LogRecord::Num(std::string_view key, double value) {
  JsonWriter json;
  json.Number(value);
  fields_.emplace_back(std::string(key), json.str());
  return *this;
}

LogRecord& LogRecord::Bool(std::string_view key, bool value) {
  fields_.emplace_back(std::string(key), value ? "true" : "false");
  return *this;
}

LogRecord::~LogRecord() {
  const auto now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  JsonWriter json;
  json.BeginObject();
  json.Key("ts_ms").Int(static_cast<long long>(now_ms));
  json.Key("level").String(LogLevelName(level_));
  json.Key("tid").Uint(ThisThreadLogId());
  json.Key("src").String(std::string(Basename(file_)) + ":" +
                         std::to_string(line_));
  json.Key("msg").String(message_.str());
  json.EndObject();
  std::string line = json.str();
  // Splice the pre-rendered fields before the closing brace — JsonWriter
  // has already validated each value, and keys go through its escaping.
  line.pop_back();  // '}'
  for (const auto& [key, value] : fields_) {
    JsonWriter key_json;
    key_json.String(std::string(key));
    line += ',';
    line += key_json.str();
    line += ':';
    line += value;
  }
  line += '}';
  EmitLine(std::move(line));
}

}  // namespace disc
