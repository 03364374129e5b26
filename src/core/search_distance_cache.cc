#include "core/search_distance_cache.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "core/observation.h"

namespace disc {

namespace {

/// Rows per chunk when the eager full-distance fill runs on a pool. Matches
/// the bound-scan grain: each chunk is tens of microseconds of arithmetic.
constexpr std::size_t kFillGrain = 8192;

}  // namespace

SearchDistanceCache::SearchDistanceCache(const Relation& relation,
                                         const DistanceEvaluator& evaluator,
                                         const Tuple& outlier,
                                         const ColumnarView* view,
                                         SearchStats* stats,
                                         WorkStealingPool* pool,
                                         SearchObserver* observer)
    : relation_(relation),
      evaluator_(evaluator),
      outlier_(outlier),
      stats_(stats),
      observer_(observer),
      attr_rows_(evaluator.arity()) {
  if (view != nullptr) kernel_.emplace(*view, outlier);
  const std::size_t n = relation.size();
  full_.resize(n);
  PhaseScope phase(observer_, TracePhase::kDcacheFill);
  // Each entry is an independent write, so chunked and inline fills produce
  // the identical vector. The columnar batch fill is vectorized across rows
  // when the view's SIMD tier allows (the grain is block-aligned,
  // ColumnarView::kLanePad) and bit-identical to DistanceEvaluator::Distance.
  auto fill = [&](std::size_t begin, std::size_t end) {
    if (kernel_.has_value()) {
      kernel_->FillDistances(full_.data() + begin, begin, end);
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      full_[i] = evaluator_.Distance(outlier_, relation_[i]);
    }
  };
  if (pool != nullptr && pool->size() > 1 && n >= 2 * kFillGrain) {
    pool->ParallelFor(0, n, kFillGrain,
                      [&](std::size_t begin, std::size_t end, std::size_t) {
                        fill(begin, end);
                      });
  } else {
    fill(0, n);
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
    PhaseScope phase(observer_, TracePhase::kDcacheFill);
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

}  // namespace disc
