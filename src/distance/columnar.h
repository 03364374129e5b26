#ifndef DISC_DISTANCE_COLUMNAR_H_
#define DISC_DISTANCE_COLUMNAR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "common/relation.h"
#include "common/tuple.h"
#include "distance/columnar_simd.h"
#include "distance/evaluator.h"
#include "distance/lp_norm.h"

namespace disc {

class Counter;
class WorkStealingPool;

/// Columnar (structure-of-arrays) snapshot of an all-numeric Relation for
/// the flat distance kernels.
///
/// The scalar distance path walks variant-typed `Value`s and pays a virtual
/// `AttributeMetric::Distance` call per attribute per pair. When every
/// metric is a scaled absolute difference and every attribute is numeric,
/// distances reduce to arithmetic over raw double arrays; ColumnarView
/// flattens the relation into contiguous per-attribute columns once (at
/// index/saver build time) so the hot O(n·m) scans stream through memory
/// with no dispatch and no unwrapping.
///
/// Layout: columns are 64-byte aligned and lane-padded — each column
/// occupies padded_rows() = n rounded up to kLanePad doubles, the pad
/// filled with zeros — so the vector kernels (distance/columnar_simd.h)
/// load full blocks unconditionally and mask tail survivors instead of
/// running a scalar epilogue per column.
///
/// Determinism contract: the kernels perform exactly the operations of the
/// scalar path — `|q − v| / scale` per attribute, aggregated in canonical
/// (increasing attribute) order by the LpAccumulator recurrence — so every
/// returned distance, and every ≤/> threshold verdict, is bit-identical to
/// `DistanceEvaluator`. The early-exit fast scan (see FlatKernel) only ever
/// rejects pairs the scalar path would also reject, and the SIMD tier
/// (DESIGN.md §12) preserves both properties for every dispatch level.
///
/// Thread-safety: immutable after Build() (set_simd_tier is a test/bench
/// hook, not for concurrent use); safe for concurrent const use — same
/// contract as the NeighborIndex implementations, DESIGN.md §5.
class ColumnarView {
 public:
  /// Lane-pad unit of the column layout, in doubles: one 64-byte cache
  /// line / AVX-512 width, a multiple of every kernel's block size.
  static constexpr std::size_t kLanePad = kColumnAlignBytes / sizeof(double);

  /// Work counters for the batch kernels, resolved from GlobalMetrics() at
  /// Build time (null handles = metrics disabled = no-op, the
  /// IndexQueryMetrics pattern). Flushed once per batch call, never per
  /// row. Note the reject counter is tier-dependent by design: which rows
  /// the pre-pass dismisses may differ between scalar and vector tiers
  /// (only observable outputs are bit-identical).
  struct ScanCounters {
    Counter* rows_scanned = nullptr;    ///< disc_kernel_rows_scanned_total
    Counter* certain_rejects = nullptr; ///< disc_kernel_certain_rejects_total
  };

  /// Eligibility for the fast path: the schema is all-numeric and
  /// non-empty, no wider than AttributeSet::kCapacity (the subset kernels
  /// key on bitmasks), and every evaluator metric is a scaled absolute
  /// difference. String attributes or custom metrics fall back to the
  /// scalar reference path.
  static bool Eligible(const Relation& relation,
                       const DistanceEvaluator& evaluator);

  /// Builds a view, or returns nullptr when `relation` is not Eligible.
  static std::unique_ptr<ColumnarView> Build(
      const Relation& relation, const DistanceEvaluator& evaluator);

  /// Builds a unit-scale view under `norm` whose row i holds
  /// relation[order[i]] — the kd-tree's leaf storage, read straight from
  /// the relation. `relation` must be all-numeric with arity in
  /// [1, AttributeSet::kCapacity]; `order` must be a permutation of its
  /// rows.
  static std::unique_ptr<ColumnarView> BuildOrdered(
      const Relation& relation, LpNorm norm,
      std::span<const std::size_t> order);

  /// Number of rows n.
  std::size_t rows() const { return rows_; }
  /// Column stride: n rounded up to kLanePad. Rows [n, padded_rows()) of
  /// every column exist and are zero — load-safe, never reported.
  std::size_t padded_rows() const { return padded_rows_; }
  /// Number of attributes m.
  std::size_t arity() const { return arity_; }
  /// The aggregation norm (copied from the evaluator).
  LpNorm norm() const { return norm_; }
  /// Contiguous column of attribute `a` (padded_rows() doubles, the first
  /// rows() of them live). 64-byte aligned.
  const double* column(std::size_t a) const {
    return data_.data() + a * padded_rows_;
  }
  /// The metric scale of attribute `a` (divides the raw difference).
  double scale(std::size_t a) const { return scales_[a]; }
  /// The m scales as a contiguous array (vector kernels load them blockwise).
  const double* scales() const { return scales_.data(); }
  /// True iff every attribute scale is exactly 1 (lets the kernels skip
  /// the division).
  bool unit_scales() const { return unit_scales_; }

  /// Attribute permutation scanned by the early-exit kernels: highest
  /// scaled variance first, so far-apart pairs overshoot the threshold in
  /// the first few attributes. Pure heuristic — it never changes results,
  /// only how soon a certain reject fires.
  std::span<const std::size_t> scan_order() const { return scan_order_; }

  /// scan_order()[k] * padded_rows(): element offsets of the scan-order
  /// columns, precomputed so the single-row gather kernels index columns
  /// without a 64-bit vector multiply.
  std::span<const std::size_t> scan_offsets() const { return scan_offsets_; }

  /// The vector tier this view's kernels dispatch to, latched from
  /// ActiveSimdTier() at Build.
  SimdTier simd_tier() const { return simd_tier_; }

  /// Test/bench hook: force a (lower) tier on this view. Clamped to
  /// DetectedSimdTier() so forcing "avx2" on lesser hardware degrades
  /// instead of faulting. Not thread-safe against concurrent kernel use.
  void set_simd_tier(SimdTier tier);

  /// The batch-kernel work counters (null handles when metrics are
  /// disabled).
  const ScanCounters& scan_counters() const { return counters_; }

  /// Adds a batch's work totals to the counters (no-op when metrics are
  /// disabled). Call once per query or pooled chunk, never per row.
  void FlushScan(const simd::ScanDelta& delta) const;

  /// Extracts a query tuple's coordinates (must be all-numeric and of
  /// matching arity — guaranteed for tuples over an eligible schema).
  std::vector<double> QueryCoords(const Tuple& query) const;

 private:
  ColumnarView() = default;

  /// Shared body of Build and BuildOrdered: row i reads
  /// relation[order[i]], or relation[i] when `order` is empty.
  static std::unique_ptr<ColumnarView> Assemble(
      const Relation& relation, LpNorm norm, std::vector<double> scales,
      std::span<const std::size_t> order);

  std::size_t rows_ = 0;
  std::size_t padded_rows_ = 0;
  std::size_t arity_ = 0;
  LpNorm norm_ = LpNorm::kL2;
  bool unit_scales_ = true;
  SimdTier simd_tier_ = SimdTier::kScalar;
  ScanCounters counters_;
  /// Column-major, 64-byte aligned: column a at
  /// [a·padded_rows_, a·padded_rows_ + padded_rows_), zero-padded past n.
  AlignedVector<double> data_;
  std::vector<double> scales_;
  std::vector<std::size_t> scan_order_;
  std::vector<std::size_t> scan_offsets_;
};

/// Distance kernel binding one query point to a ColumnarView. Cheap to
/// construct (copies m doubles); make one per query, then evaluate any
/// number of rows. All methods are bit-identical to the corresponding
/// DistanceEvaluator calls with the query as t1 and the indexed row as t2,
/// on every SIMD tier (the batch entry points dispatch to the vector
/// kernels of distance/columnar_simd.h when the view's tier allows).
class FlatKernel {
 public:
  FlatKernel(const ColumnarView& view, const Tuple& query)
      : view_(&view), q_(view.QueryCoords(query)) {}
  FlatKernel(const ColumnarView& view, std::vector<double> query_coords)
      : view_(&view), q_(std::move(query_coords)) {}

  /// Full-tuple distance Δ(q, t_row) — canonical order, no early exit.
  double Distance(std::size_t row) const;

  /// Full-tuple distance with early exit: +infinity as soon as the pair is
  /// certainly beyond `threshold`, the exact (canonical-order) distance
  /// otherwise. For L2 the scan compares running d² against ε² and takes a
  /// single sqrt only on accept. Verdicts and accepted values are
  /// bit-identical to DistanceEvaluator::DistanceWithin.
  double DistanceWithin(std::size_t row, double threshold) const;

  /// Subset distance Δ(q[X], t_row[X]) — canonical order over X.
  double DistanceOn(const AttributeSet& x, std::size_t row) const;

  /// Subset distance with early exit past `threshold` (+infinity), matching
  /// DistanceEvaluator::DistanceOnWithin bit for bit.
  double DistanceOnWithin(const AttributeSet& x, std::size_t row,
                          double threshold) const;

  /// Batch ε-visit over rows [begin, end): reports every row with
  /// Δ(q, t_row) ≤ epsilon to `hit`, in ascending row order, with its
  /// distance. Verdicts and distances are bit-identical to calling
  /// DistanceWithin(row, epsilon) per row; the batch form keeps the row
  /// loop inside the kernel so the threshold constants and norm dispatch
  /// are hoisted out of the per-row path — and is where the SIMD tier
  /// engages. A `hit` that returns false stops the visit at the end of the
  /// current lane block (simd::HitFn). The one scan body behind
  /// CollectWithin, CountWithin and the kd-tree's leaf scans. Rows scanned
  /// accumulate into `delta`; the caller flushes it (ColumnarView::
  /// FlushScan) once per query.
  void VisitWithin(double epsilon, std::size_t begin, std::size_t end,
                   simd::HitFn hit, void* ctx, simd::ScanDelta* delta) const;

  /// Batch range scan over all n rows: appends every row with
  /// Δ(q, t_row) ≤ epsilon to `rows` and its distance to `distances`
  /// (parallel arrays, ascending row order) — VisitWithin over [0, n).
  void CollectWithin(double epsilon, std::vector<std::size_t>* rows,
                     std::vector<double>* distances) const;

  /// Batch count: the number of rows with Δ(q, t_row) ≤ epsilon, without
  /// materializing the matches. Same verdicts as CollectWithin.
  std::size_t CountWithin(double epsilon) const;

  /// Parallel CollectWithin: chunks the row range across `pool` (nested
  /// ParallelFor; see WorkStealingPool), each chunk collecting into local
  /// vectors that are concatenated in chunk order — so the output is
  /// identical, element for element, to the sequential overload. The chunk
  /// grain is a multiple of ColumnarView::kLanePad, so every chunk is
  /// block-aligned and per-chunk SIMD scans stay grain-pure. Falls back
  /// to the sequential scan for a null/single-thread pool or a small n.
  void CollectWithin(double epsilon, std::vector<std::size_t>* rows,
                     std::vector<double>* distances,
                     WorkStealingPool* pool) const;

  /// Parallel CountWithin: per-chunk counts summed after the join. Same
  /// verdicts and fallback rules as the parallel CollectWithin.
  std::size_t CountWithin(double epsilon, WorkStealingPool* pool) const;

  /// Batch full-distance fill: out[i − begin] = Distance(i) for i in
  /// [begin, end), bit-identical lane for lane (the canonical attribute
  /// order is preserved; the vector tier only evaluates multiple rows per
  /// instruction). Feeds the eager SearchDistanceCache fill.
  void FillDistances(double* out, std::size_t begin, std::size_t end) const;

  /// Fills `out[i] = Δ(q[a], t_i[a])` for all n rows of attribute `a` —
  /// the memoized per-attribute rows of SearchDistanceCache.
  void FillAttributeDistances(std::size_t a, double* out) const;

  /// The bound view.
  const ColumnarView& view() const { return *view_; }
  /// The query coordinates.
  std::span<const double> query() const { return q_; }

 private:
  const ColumnarView* view_;
  std::vector<double> q_;
};

}  // namespace disc

#endif  // DISC_DISTANCE_COLUMNAR_H_
