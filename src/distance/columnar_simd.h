#ifndef DISC_DISTANCE_COLUMNAR_SIMD_H_
#define DISC_DISTANCE_COLUMNAR_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/cpu_features.h"

namespace disc {

class ColumnarView;

/// Hand-vectorized tier under FlatKernel (DESIGN.md §12).
///
/// Every function here implements the *same contract* as the scalar columnar
/// kernels (distance/columnar.cc), with the same operations in the same
/// order: per row, the attributes in canonical order, a separate multiply
/// and add, the scalar early-exit test after every add, one Total. Only the
/// rows differ — several per instruction — so every distance and verdict is
/// bit-identical to the scalar tier, and so are the work counts of a scan
/// that runs to its end (a stopped scan finishes its lane block).
///
/// Dispatch: callers pass the tier explicitly (ColumnarView latches
/// ActiveSimdTier() at build time; tests and the parity bench override it
/// per view). Functions return an "unsupported" signal instead of falling
/// back internally, so the scalar reference lives in exactly one place.
namespace simd {

/// Per-call work deltas from a batch scan, flushed by FlatKernel into the
/// disc_kernel_* counters once per public call — never per row.
struct ScanDelta {
  std::uint64_t rows_scanned = 0;
  std::uint64_t certain_rejects = 0;
};

/// Hit sink for the batch ε-scans: invoked once per accepted row, in
/// ascending row order, with the exact canonical distance. Returning false
/// asks the scan to stop at the end of the current lane block (one row on
/// the scalar tier); hits already made in that block are still reported.
using HitFn = bool (*)(void* ctx, std::size_t row, double distance);

/// Batch ε-scan over rows [begin, end): the SIMD equivalent of the scalar
/// reference scan. Returns false when `tier` has no compiled kernel (the
/// caller runs the scalar reference); on true, every row with
/// Δ(q, t_row) ≤ epsilon up to the stop point was reported through `hit`
/// with its canonical distance, and `delta` accumulated the rows scanned.
bool ScanWithin(SimdTier tier, const ColumnarView& v, const double* q,
                double epsilon, std::size_t begin, std::size_t end, HitFn hit,
                void* ctx, ScanDelta* delta);

/// Batch full-distance fill: out[i - begin] = Δ(q, t_i) for i in
/// [begin, end), each lane bit-identical to the scalar reference (the
/// per-row sum runs in canonical attribute order; vectorizing across rows
/// never reorders it). Returns false when unsupported.
bool FillDistances(SimdTier tier, const ColumnarView& v, const double* q,
                   std::size_t begin, std::size_t end, double* out);

/// Batch per-attribute fill: out[i] = |q_a − col_a[i]| for all n rows —
/// the SearchDistanceCache attribute rows. Returns false when unsupported.
bool FillAttributeDistances(SimdTier tier, const ColumnarView& v, double q_a,
                            std::size_t a, double* out);

}  // namespace simd
}  // namespace disc

#endif  // DISC_DISTANCE_COLUMNAR_SIMD_H_
