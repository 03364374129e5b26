// Benchmark-side spans: the traced run wraps every call into a layer's
// public function in one span, kept in memory and written out as JSONL when
// the run ends. Single-threaded by design — the benchmark thread makes the
// calls; work a call fans out to a pool is inside its span.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct BenchSpan {
  /// "<layer>/<function>", e.g. "core.saver/Save". Static storage.
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root
  std::uint64_t run_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
  /// The part of `name` before the '/'.
  std::string layer() const;
};

struct SpanSum {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;

  double total_s() const { return static_cast<double>(total_ns) * 1e-9; }
  double mean_s() const { return count > 0 ? total_s() / count : 0; }
};

struct LayerTime {
  std::uint64_t self_ns = 0;
  std::uint64_t spans = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t run_id) : run_id_(run_id) {}

  /// Opens a span under the innermost open one. `name` must be static.
  std::uint64_t Begin(const char* name);
  /// Closes the innermost open span, which must be `id`.
  void End(std::uint64_t id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name)
        : recorder_(recorder), id_(recorder.Begin(name)) {}
    ~Scope() { recorder_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    std::uint64_t id_;
  };

  const std::vector<BenchSpan>& spans() const { return spans_; }
  const BenchSpan* Find(std::uint64_t id) const;

  /// Duration of `span` minus the union of its direct children's
  /// intervals.
  std::uint64_t SelfNs(const BenchSpan& span) const;

  /// Self time per layer over the spans in the subtree rooted at `root`
  /// (the root included).
  std::map<std::string, LayerTime> ByLayer(std::uint64_t root) const;

  /// Count and summed durations of the spans named `name`.
  SpanSum Sum(const char* name) const;

  /// One JSON object per span. Returns false when the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::uint64_t run_id_;
  std::vector<BenchSpan> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
