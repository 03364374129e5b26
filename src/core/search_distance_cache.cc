#include "core/search_distance_cache.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "distance/lp_norm.h"

namespace disc {

namespace {

/// Rows per chunk when the eager full-distance fill runs on a pool. Matches
/// the bound-scan grain: each chunk is tens of microseconds of arithmetic.
constexpr std::size_t kFillGrain = 8192;

}  // namespace

namespace {

/// Records one `pool_chunk` span per chunk of the eager parallel fill,
/// parented under the search's dcache_fill phase span (the same scheme as
/// the chunked bound scans in bounds.cc).
struct FillChunkSpans {
  SearchTrace* trace = nullptr;
  std::uint64_t phase_span = 0;
  std::uint64_t scan_span = 0;

  explicit FillChunkSpans(SearchTrace* search_trace) {
    if (search_trace == nullptr || search_trace->collector == nullptr) return;
    trace = search_trace;
    phase_span = trace->PhaseSpanId(TracePhase::kDcacheFill);
    scan_span = DeriveSpanId(phase_span, TraceSpanKind::kScan,
                             trace->scan_ordinal++);
  }

  bool enabled() const { return trace != nullptr; }

  void Record(std::uint64_t chunk_start_ns, std::size_t chunk,
              std::size_t rows) const {
    TraceSpan span;
    span.name = "pool_chunk";
    span.start_ns = chunk_start_ns;
    span.duration_ns = TraceNowNs() - chunk_start_ns;
    span.trace_id = trace->trace_id;
    span.span_id = DeriveSpanId(scan_span, TraceSpanKind::kChunk, chunk);
    span.parent_id = phase_span;
    span.Int("chunk", chunk).Int("rows", rows);
    trace->collector->Record(
        SpanSlotForWorker(WorkStealingPool::CurrentWorkerIndex(),
                          trace->collector->slots()),
        std::move(span));
  }
};

}  // namespace

SearchDistanceCache::SearchDistanceCache(const Relation& relation,
                                         const DistanceEvaluator& evaluator,
                                         const Tuple& outlier,
                                         const ColumnarView* view,
                                         SearchStats* stats,
                                         WorkStealingPool* pool,
                                         SearchTrace* trace)
    : relation_(relation),
      evaluator_(evaluator),
      outlier_(outlier),
      stats_(stats),
      trace_(trace),
      arity_(evaluator.arity()),
      attr_rows_(evaluator.arity()) {
  if (view != nullptr) kernel_.emplace(*view, outlier);
  const std::size_t n = relation.size();
  full_.resize(n);
  const bool parallel =
      pool != nullptr && pool->size() > 1 && n >= 2 * kFillGrain;
  PhaseScope phase(trace_, TracePhase::kDcacheFill);
  const FillChunkSpans chunk_spans(parallel ? trace_ : nullptr);
  if (kernel_.has_value()) {
    // Batch fill: vectorized across rows when the view's SIMD tier allows,
    // bit-identical to per-row Distance() either way. Each entry is an
    // independent write; chunked or sequential fills produce the identical
    // vector (the grain is block-aligned, ColumnarView::kLanePad).
    if (parallel) {
      pool->ParallelFor(
          0, n, kFillGrain,
          [&](std::size_t begin, std::size_t end, std::size_t chunk) {
            const std::uint64_t chunk_start =
                chunk_spans.enabled() ? TraceNowNs() : 0;
            kernel_->FillDistances(full_.data() + begin, begin, end);
            if (chunk_spans.enabled()) {
              chunk_spans.Record(chunk_start, chunk, end - begin);
            }
          });
    } else {
      kernel_->FillDistances(full_.data(), 0, n);
    }
  } else if (parallel) {
    pool->ParallelFor(
        0, n, kFillGrain,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          const std::uint64_t chunk_start =
              chunk_spans.enabled() ? TraceNowNs() : 0;
          for (std::size_t i = begin; i < end; ++i) {
            full_[i] = evaluator_.Distance(outlier_, relation_[i]);
          }
          if (chunk_spans.enabled()) {
            chunk_spans.Record(chunk_start, chunk, end - begin);
          }
        });
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      full_[i] = evaluator_.Distance(outlier_, relation_[i]);
    }
  }
  has_nan_ = std::any_of(full_.begin(), full_.end(),
                         [](double d) { return std::isnan(d); });
}

const double* SearchDistanceCache::AttributeRow(std::size_t a) const {
  std::vector<double>& row = attr_rows_[a];
  if (row.empty() && !full_.empty()) {
    if (stats_ != nullptr) ++stats_->dcache_misses;
    // Lazy fills run on the owning search thread, usually inside a
    // bounds_scan phase; the scope below pauses it so the fill charges to
    // dcache_fill.
    PhaseScope phase(trace_, TracePhase::kDcacheFill);
    row.resize(full_.size());
    if (kernel_.has_value()) {
      kernel_->FillAttributeDistances(a, row.data());
    } else {
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = evaluator_.AttributeDistance(a, outlier_[a], relation_[i][a]);
      }
    }
  }
  return row.data();
}

double SearchDistanceCache::DistanceOn(const AttributeSet& x,
                                       std::size_t row) const {
  LpAccumulator acc(evaluator_.norm());
  for (std::size_t a = 0; a < arity_; ++a) {
    if (x.contains(a)) acc.Add(AttributeRow(a)[row]);
  }
  return acc.Total();
}

double SearchDistanceCache::DistanceOnWithin(const AttributeSet& x,
                                             std::size_t row,
                                             double threshold) const {
  LpAccumulator acc(evaluator_.norm());
  for (std::size_t a = 0; a < arity_; ++a) {
    if (!x.contains(a)) continue;
    acc.Add(AttributeRow(a)[row]);
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
}

}  // namespace disc
