#include "distance/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/metrics.h"
#include "distance/columnar_internal.h"
#include "distance/columnar_simd.h"

namespace disc {

namespace {

using columnar_internal::CanonicalDistance;
using columnar_internal::CanonicalWithin;
using columnar_internal::NormPolicy;
using columnar_internal::WithNorm;

/// Scalar reference scan over rows [begin, end), invoking `hit` for each
/// accept and stopping after the row whose hit returns false. The norm is
/// a template parameter and the threshold constants are hoisted outside
/// the row loop, so each norm compiles to one tight scan over the columns.
/// Work totals accumulate into `delta`.
template <LpNorm N>
void ScalarScanRange(const ColumnarView& v, const double* q, double epsilon,
                     std::size_t begin, std::size_t end, simd::HitFn hit,
                     void* ctx, simd::ScanDelta* delta) {
  const double raw = NormPolicy<N>::Raw(epsilon);
  std::uint64_t rejects = 0;
  bool go = true;
  std::size_t i = begin;
  for (; go && i < end; ++i) {
    double d = CanonicalWithin<N>(v, q, i, raw, &rejects);
    if (d <= epsilon) go = hit(ctx, i, d);
  }
  delta->rows_scanned += i - begin;
  delta->certain_rejects += rejects;
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

}  // namespace

bool ColumnarView::Eligible(const Relation& relation,
                            const DistanceEvaluator& evaluator) {
  return relation.arity() > 0 &&
         relation.arity() <= AttributeSet::kCapacity &&
         relation.arity() == evaluator.arity() &&
         relation.schema().all_numeric() &&
         evaluator.AllUnitAbsoluteDifference();
}

std::unique_ptr<ColumnarView> ColumnarView::Build(
    const Relation& relation, const DistanceEvaluator& evaluator) {
  if (!Eligible(relation, evaluator)) return nullptr;
  return BuildOrdered(relation, evaluator.norm(), {});
}

std::unique_ptr<ColumnarView> ColumnarView::BuildOrdered(
    const Relation& relation, LpNorm norm, std::span<const std::size_t> order) {
  auto view = std::unique_ptr<ColumnarView>(new ColumnarView());
  const std::size_t n = relation.size();
  const std::size_t m = relation.arity();
  view->rows_ = n;
  view->padded_rows_ = (n + kLanePad - 1) / kLanePad * kLanePad;
  view->arity_ = m;
  view->norm_ = norm;
  view->simd_tier_ = ActiveSimdTier();
  if (MetricsRegistry* registry = GlobalMetrics()) {
    view->counters_.rows_scanned = registry->GetCounter(
        "disc_kernel_rows_scanned_total",
        "Rows evaluated by the batch columnar distance kernels");
    view->counters_.certain_rejects = registry->GetCounter(
        "disc_kernel_certain_rejects_total",
        "Rows the batch columnar scans rejected because the running Lp "
        "aggregate crossed the threshold");
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

FlatKernel::FlatKernel(const ColumnarView& view, const Tuple& query)
    : view_(&view), q_(view.arity()) {
  for (std::size_t a = 0; a < q_.size(); ++a) q_[a] = query[a].num();
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

void FlatKernel::FillDistances(double* out, std::size_t begin,
                               std::size_t end) const {
  const ColumnarView& v = *view_;
  if (!simd::FillDistances(v.simd_tier(), v, q_.data(), begin, end, out)) {
    WithNorm(v.norm(), [&](auto norm) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i - begin] =
            CanonicalDistance<decltype(norm)::value>(v, q_.data(), i);
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
  for (std::size_t i = 0; i < v.rows(); ++i) out[i] = std::fabs(q - col[i]);
}

}  // namespace disc
