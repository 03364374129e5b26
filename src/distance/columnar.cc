#include "distance/columnar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "distance/columnar_internal.h"
#include "distance/columnar_simd.h"

namespace disc {

namespace {

using columnar_internal::AttrDistance;
using columnar_internal::CanonicalDistance;
using columnar_internal::CanonicalWithin;
using columnar_internal::kInf;
using columnar_internal::NormPolicy;
using columnar_internal::RowWithin;
using columnar_internal::WithNorm;

/// Bits of `x` restricted to attributes < arity, mirroring the scalar
/// DistanceOn loop which only tests a < m.
inline std::uint64_t MaskedBits(const AttributeSet& x, std::size_t arity) {
  std::uint64_t mask = arity >= 64 ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << arity) - 1);
  return x.bits() & mask;
}

/// Scalar reference scan over rows [begin, end), invoking `hit` for each
/// accept and stopping after the row whose hit returns false. The norm is
/// a template parameter and the threshold constants are hoisted outside
/// the row loop, so each norm compiles to one tight scan over the columns.
/// Work totals accumulate into `delta`.
template <LpNorm N>
void ScalarScanRange(const ColumnarView& v, const double* q, double epsilon,
                     std::size_t begin, std::size_t end, simd::HitFn hit,
                     void* ctx, simd::ScanDelta* delta) {
  using P = NormPolicy<N>;
  const bool unit = v.unit_scales();
  const double raw = P::Raw(epsilon);
  const double reject = P::Reject(epsilon);
  std::uint64_t cr = 0;
  bool go = true;
  std::size_t i = begin;
  for (; go && i < end; ++i) {
    double d = RowWithin<N>(v, q, i, raw, reject, unit, &cr);
    if (d <= epsilon) go = hit(ctx, i, d);
  }
  delta->rows_scanned += i - begin;
  delta->certain_rejects += cr;
}

/// Hit sinks for the dispatched scans (plain functions: the SIMD tier takes
/// a function pointer, so its kernels are instantiated per norm, not per
/// sink).
struct CollectCtx {
  std::vector<std::size_t>* rows;
  std::vector<double>* distances;
};

bool CollectHit(void* ctx, std::size_t row, double d) {
  auto* c = static_cast<CollectCtx*>(ctx);
  c->rows->push_back(row);
  c->distances->push_back(d);
  return true;
}

bool CountHit(void* ctx, std::size_t /*row*/, double /*d*/) {
  ++*static_cast<std::size_t*>(ctx);
  return true;
}

/// Rows per nested chunk for the parallel batch scans. A 6-attribute L2
/// chunk of this size costs tens of microseconds — coarse enough that the
/// pool's per-chunk lock round trip is noise, fine enough that a 500k-row
/// scan splits across every idle core.
constexpr std::size_t kParallelScanGrain = 8192;

/// Chunk boundaries must be lane-block aligned so per-chunk SIMD scans run
/// block loops end to end with no scalar head (grain purity: every chunk
/// but the last is whole blocks).
static_assert(kParallelScanGrain % ColumnarView::kLanePad == 0);

/// True when splitting an n-row scan over `pool` is worth the fixed cost.
inline bool UseParallelScan(const WorkStealingPool* pool, std::size_t n) {
  return pool != nullptr && pool->size() > 1 && n >= 2 * kParallelScanGrain;
}

}  // namespace

bool ColumnarView::Eligible(const Relation& relation,
                            const DistanceEvaluator& evaluator) {
  return relation.arity() > 0 &&
         relation.arity() <= AttributeSet::kCapacity &&
         relation.arity() == evaluator.arity() &&
         relation.schema().all_numeric() &&
         evaluator.AllScaledAbsoluteDifference();
}

std::unique_ptr<ColumnarView> ColumnarView::Build(
    const Relation& relation, const DistanceEvaluator& evaluator) {
  if (!Eligible(relation, evaluator)) return nullptr;
  std::vector<double> scales;
  evaluator.AllScaledAbsoluteDifference(&scales);
  return Assemble(relation, evaluator.norm(), std::move(scales), {});
}

std::unique_ptr<ColumnarView> ColumnarView::BuildOrdered(
    const Relation& relation, LpNorm norm, std::span<const std::size_t> order) {
  return Assemble(relation, norm, std::vector<double>(relation.arity(), 1.0),
                  order);
}

std::unique_ptr<ColumnarView> ColumnarView::Assemble(
    const Relation& relation, LpNorm norm, std::vector<double> scales,
    std::span<const std::size_t> order) {
  auto view = std::unique_ptr<ColumnarView>(new ColumnarView());
  const std::size_t n = relation.size();
  const std::size_t m = relation.arity();
  view->rows_ = n;
  view->padded_rows_ = (n + kLanePad - 1) / kLanePad * kLanePad;
  view->arity_ = m;
  view->norm_ = norm;
  view->simd_tier_ = ActiveSimdTier();
  view->scales_ = std::move(scales);
  view->unit_scales_ = std::all_of(view->scales_.begin(), view->scales_.end(),
                                   [](double s) { return s == 1.0; });
  if (MetricsRegistry* registry = GlobalMetrics()) {
    view->counters_.rows_scanned = registry->GetCounter(
        "disc_kernel_rows_scanned_total",
        "Rows evaluated by the batch columnar distance kernels");
    view->counters_.certain_rejects = registry->GetCounter(
        "disc_kernel_certain_rejects_total",
        "Rows dismissed by the certain-reject pre-pass of the batch "
        "columnar scans (which rows reject is SIMD-tier-dependent; "
        "outputs are not)");
  }

  // Zero-initialized so the pad rows [n, padded_rows) of every column hold
  // 0.0 — always safe to load, never reported (verdict masks stop at n).
  const std::size_t stride = view->padded_rows_;
  view->data_.assign(stride * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = relation[order.empty() ? i : order[i]];
    for (std::size_t a = 0; a < m; ++a) {
      view->data_[a * stride + i] = t[a].num();
    }
  }

  // Scan order: scaled variance, descending (ties by index). High-variance
  // attributes contribute the largest terms on average, so far pairs trip
  // the early exit within the first attribute or two.
  std::vector<double> variance(m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    const double* col = view->column(a);
    double mean = 0;
    std::size_t finite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(col[i])) {
        mean += col[i];
        ++finite;
      }
    }
    if (finite == 0) continue;
    mean /= static_cast<double>(finite);
    double var = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(col[i])) {
        double d = col[i] - mean;
        var += d * d;
      }
    }
    double s = view->scales_[a];
    variance[a] = var / static_cast<double>(finite) / (s * s);
  }
  view->scan_order_.resize(m);
  std::iota(view->scan_order_.begin(), view->scan_order_.end(), 0);
  std::sort(view->scan_order_.begin(), view->scan_order_.end(),
            [&](std::size_t a, std::size_t b) {
              return variance[a] > variance[b] ||
                     (variance[a] == variance[b] && a < b);
            });
  view->scan_offsets_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    view->scan_offsets_[k] = view->scan_order_[k] * stride;
  }
  return view;
}

void ColumnarView::set_simd_tier(SimdTier tier) {
  simd_tier_ = std::min(tier, DetectedSimdTier());
}

void ColumnarView::FlushScan(const simd::ScanDelta& delta) const {
  if (counters_.rows_scanned != nullptr) {
    counters_.rows_scanned->Add(delta.rows_scanned);
  }
  if (counters_.certain_rejects != nullptr) {
    counters_.certain_rejects->Add(delta.certain_rejects);
  }
}

std::vector<double> ColumnarView::QueryCoords(const Tuple& query) const {
  std::vector<double> q(arity_);
  for (std::size_t a = 0; a < arity_; ++a) q[a] = query[a].num();
  return q;
}

double FlatKernel::Distance(std::size_t row) const {
  return WithNorm(view_->norm(), [&](auto norm) {
    return CanonicalDistance<decltype(norm)::value>(*view_, q_.data(), row,
                                                    view_->unit_scales());
  });
}

double FlatKernel::DistanceWithin(std::size_t row, double threshold) const {
  const ColumnarView& v = *view_;
  // Wide rows first try the gathered vector pre-pass; a certain reject or
  // an exact L∞ value skips the scalar work entirely, an inconclusive
  // pre-pass falls to the canonical recompute (same recompute the scalar
  // path runs after its own pre-pass, so results agree bit for bit).
  double exact = 0;
  const simd::Verdict verdict = simd::DistanceWithinPrepass(
      v.simd_tier(), v, q_.data(), row, threshold, &exact);
  if (verdict == simd::Verdict::kCertainReject) return kInf;
  if (verdict == simd::Verdict::kExact) return exact;
  return WithNorm(v.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    using P = NormPolicy<N>;
    const bool unit = v.unit_scales();
    if (verdict == simd::Verdict::kMaybeWithin) {
      return CanonicalWithin<N>(v, q_.data(), row, P::Raw(threshold), unit);
    }
    // Fast pass, high-variance attributes first, against the slackened
    // threshold (certain reject — see kCertainRejectSlack; no sqrt on the
    // reject path); survivors are recomputed in canonical order so the
    // returned value is bit-identical to the scalar reference. Single-row
    // calls are unmetered (a counter flush per row would dominate the
    // kernel); the batch scans carry the work counters.
    std::uint64_t cr = 0;
    return RowWithin<N>(v, q_.data(), row, P::Raw(threshold),
                        P::Reject(threshold), unit, &cr);
  });
}

void FlatKernel::VisitWithin(double epsilon, std::size_t begin,
                             std::size_t end, simd::HitFn hit, void* ctx,
                             simd::ScanDelta* delta) const {
  // The view's SIMD tier if it has a kernel, the scalar reference
  // otherwise; either way verdicts, distances and order are identical
  // (DESIGN.md §12).
  const ColumnarView& v = *view_;
  if (simd::ScanWithin(v.simd_tier(), v, q_.data(), epsilon, begin, end, hit,
                       ctx, delta)) {
    return;
  }
  WithNorm(v.norm(), [&](auto norm) {
    ScalarScanRange<decltype(norm)::value>(v, q_.data(), epsilon, begin, end,
                                           hit, ctx, delta);
  });
}

void FlatKernel::CollectWithin(double epsilon, std::vector<std::size_t>* rows,
                               std::vector<double>* distances) const {
  CollectCtx ctx{rows, distances};
  simd::ScanDelta delta;
  VisitWithin(epsilon, 0, view_->rows(), &CollectHit, &ctx, &delta);
  view_->FlushScan(delta);
}

std::size_t FlatKernel::CountWithin(double epsilon) const {
  std::size_t count = 0;
  simd::ScanDelta delta;
  VisitWithin(epsilon, 0, view_->rows(), &CountHit, &count, &delta);
  view_->FlushScan(delta);
  return count;
}

void FlatKernel::CollectWithin(double epsilon, std::vector<std::size_t>* rows,
                               std::vector<double>* distances,
                               WorkStealingPool* pool) const {
  const std::size_t n = view_->rows();
  if (!UseParallelScan(pool, n)) {
    CollectWithin(epsilon, rows, distances);
    return;
  }
  const std::size_t chunks =
      (n + kParallelScanGrain - 1) / kParallelScanGrain;
  std::vector<std::vector<std::size_t>> chunk_rows(chunks);
  std::vector<std::vector<double>> chunk_dists(chunks);
  pool->ParallelFor(
      0, n, kParallelScanGrain,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        CollectCtx ctx{&chunk_rows[chunk], &chunk_dists[chunk]};
        simd::ScanDelta delta;
        VisitWithin(epsilon, begin, end, &CollectHit, &ctx, &delta);
        view_->FlushScan(delta);
      });
  // Chunks cover [0, n) in order, so concatenation preserves the ascending
  // row order of the sequential scan exactly.
  for (std::size_t c = 0; c < chunks; ++c) {
    rows->insert(rows->end(), chunk_rows[c].begin(), chunk_rows[c].end());
    distances->insert(distances->end(), chunk_dists[c].begin(),
                      chunk_dists[c].end());
  }
}

std::size_t FlatKernel::CountWithin(double epsilon,
                                    WorkStealingPool* pool) const {
  const std::size_t n = view_->rows();
  if (!UseParallelScan(pool, n)) return CountWithin(epsilon);
  const std::size_t chunks =
      (n + kParallelScanGrain - 1) / kParallelScanGrain;
  std::vector<std::size_t> chunk_counts(chunks, 0);
  pool->ParallelFor(
      0, n, kParallelScanGrain,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::size_t count = 0;
        simd::ScanDelta delta;
        VisitWithin(epsilon, begin, end, &CountHit, &count, &delta);
        view_->FlushScan(delta);
        chunk_counts[chunk] = count;
      });
  std::size_t total = 0;
  for (std::size_t c : chunk_counts) total += c;
  return total;
}

double FlatKernel::DistanceOn(const AttributeSet& x, std::size_t row) const {
  const ColumnarView& v = *view_;
  const bool unit = v.unit_scales();
  LpAccumulator acc(v.norm());
  for (std::uint64_t bits = MaskedBits(x, v.arity()); bits != 0;
       bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    acc.Add(AttrDistance(v, q_.data(), a, row, unit));
  }
  return acc.Total();
}

double FlatKernel::DistanceOnWithin(const AttributeSet& x, std::size_t row,
                                    double threshold) const {
  const ColumnarView& v = *view_;
  const bool unit = v.unit_scales();
  const std::uint64_t masked = MaskedBits(x, v.arity());
  double exact = 0;
  switch (simd::DistanceOnWithinPrepass(v.simd_tier(), v, q_.data(), masked,
                                        row, threshold, &exact)) {
    case simd::Verdict::kCertainReject:
      return kInf;
    case simd::Verdict::kExact:
      return exact;
    case simd::Verdict::kMaybeWithin:
    case simd::Verdict::kUnsupported:
      break;  // canonical LpAccumulator loop below
  }
  LpAccumulator acc(v.norm());
  for (std::uint64_t bits = masked; bits != 0; bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    acc.Add(AttrDistance(v, q_.data(), a, row, unit));
    if (acc.Exceeds(threshold)) return kInf;
  }
  return acc.Total();
}

void FlatKernel::FillDistances(double* out, std::size_t begin,
                               std::size_t end) const {
  const ColumnarView& v = *view_;
  if (!simd::FillDistances(v.simd_tier(), v, q_.data(), begin, end, out)) {
    const bool unit = v.unit_scales();
    WithNorm(v.norm(), [&](auto norm) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i - begin] =
            CanonicalDistance<decltype(norm)::value>(v, q_.data(), i, unit);
      }
    });
  }
  simd::ScanDelta delta;
  delta.rows_scanned = end - begin;
  v.FlushScan(delta);
}

void FlatKernel::FillAttributeDistances(std::size_t a, double* out) const {
  const ColumnarView& v = *view_;
  if (simd::FillAttributeDistances(v.simd_tier(), v, q_[a], a, out)) return;
  const double* col = v.column(a);
  const double q = q_[a];
  const double scale = v.scale(a);
  const std::size_t n = v.rows();
  if (scale == 1.0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(q - col[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(q - col[i]) / scale;
  }
}

}  // namespace disc
