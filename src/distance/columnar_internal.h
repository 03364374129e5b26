#ifndef DISC_DISTANCE_COLUMNAR_INTERNAL_H_
#define DISC_DISTANCE_COLUMNAR_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "distance/columnar.h"

/// Scalar per-row kernels shared by the reference path (columnar.cc) and
/// the vector tier (columnar_simd.cc), which runs them for unaligned head
/// rows and for the canonical recompute of pre-pass survivors.
/// Internal to the distance library — not part of the public surface.
namespace disc::columnar_internal {

/// Multiplicative slack for the variance-ordered reject pass. Summing m ≤ 64
/// non-negative terms in any order — including the fused multiply-adds and
/// lane-parallel partial sums of the vector tier — differs from the
/// canonical-order sum by a relative error of at most (m−1)·ε ≈ 1.4e-14, so
/// a reordered partial sum beyond threshold·(1 + 1e-12) proves the canonical
/// sum is beyond the threshold too: every fast pass can only reject pairs
/// the scalar reference also rejects. (At threshold 0 the slack degenerates
/// to 0, which is still exact: non-negative sums are order-independently
/// zero or positive.)
inline constexpr double kCertainRejectSlack = 1.0 + 1e-12;

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The norm's arithmetic (paper Formula 1) — the one definition every
/// columnar kernel instantiates, scalar and vector tiers alike, so each
/// kernel body is written once and the norm is a compile-time constant.
/// The vector lane helpers of columnar_simd.cc mirror Add and Total
/// intrinsic for intrinsic.
///
/// It performs LpAccumulator's operations but deliberately shares no code
/// with it: LpAccumulator and DistanceEvaluator are the independent
/// reference the parity suites hold these kernels to, so a slip here cannot
/// also hide in the reference.
template <LpNorm N>
struct NormPolicy {
  /// L∞'s reject is exact: max is order-independent, so a pass in any
  /// order rejects on the first term past the threshold and otherwise ends
  /// with the exact distance (NaN terms drop out of std::max exactly as in
  /// LpAccumulator). The sums' reordered pre-passes are only certain past
  /// kCertainRejectSlack, and their survivors are recomputed canonically.
  static constexpr bool kExactReject = N == LpNorm::kLInf;

  /// A threshold in accumulator units: ε² for L2 (running sums of squares
  /// are compared against it, so the reject path never takes a square
  /// root), ε otherwise.
  static double Raw(double threshold) {
    if constexpr (N == LpNorm::kL2) {
      return threshold * threshold;
    } else {
      return threshold;
    }
  }

  /// The reject threshold of a reordered pre-pass, in accumulator units.
  static double Reject(double threshold) {
    if constexpr (kExactReject) {
      return threshold;
    } else {
      return Raw(threshold) * kCertainRejectSlack;
    }
  }

  /// Folds one per-attribute distance into the accumulator: d², d or max.
  static double Add(double acc, double d) {
    if constexpr (N == LpNorm::kL2) {
      return acc + d * d;
    } else if constexpr (N == LpNorm::kL1) {
      return acc + d;
    } else {
      return std::max(acc, d);
    }
  }

  /// The distance an accumulator stands for: √ for L2, itself otherwise.
  static double Total(double acc) {
    if constexpr (N == LpNorm::kL2) {
      return std::sqrt(acc);
    } else {
      return acc;
    }
  }
};

/// Runs `f(std::integral_constant<LpNorm, N>{})` for the runtime `norm` —
/// the one switch on the norm that every public kernel entry point goes
/// through, once per call, before any row is touched.
template <typename F>
decltype(auto) WithNorm(LpNorm norm, F&& f) {
  switch (norm) {
    case LpNorm::kL1:
      return f(std::integral_constant<LpNorm, LpNorm::kL1>{});
    case LpNorm::kLInf:
      return f(std::integral_constant<LpNorm, LpNorm::kLInf>{});
    case LpNorm::kL2:
      break;
  }
  return f(std::integral_constant<LpNorm, LpNorm::kL2>{});
}

/// |q[a] − v_a[row]|: one per-attribute distance.
inline double AttrDistance(const ColumnarView& v, const double* q,
                           std::size_t a, std::size_t row) {
  return std::fabs(q[a] - v.column(a)[row]);
}

/// Canonical full distance — the per-row arithmetic of
/// FlatKernel::FillDistances, shared so the vector tier's scalar heads stay
/// bit-identical.
template <LpNorm N>
inline double CanonicalDistance(const ColumnarView& v, const double* q,
                                std::size_t row) {
  using P = NormPolicy<N>;
  double acc = 0;
  const std::size_t m = v.arity();
  for (std::size_t a = 0; a < m; ++a) {
    acc = P::Add(acc, AttrDistance(v, q, a, row));
  }
  return P::Total(acc);
}

/// Canonical-order threshold recompute (no reject pre-pass): the exact
/// LpAccumulator recurrence with the threshold check after every add and a
/// single Total on accept. `raw` is NormPolicy<N>::Raw(threshold). Run on
/// rows a certain-reject pre-pass could not dismiss.
template <LpNorm N>
inline double CanonicalWithin(const ColumnarView& v, const double* q,
                              std::size_t row, double raw) {
  using P = NormPolicy<N>;
  double acc = 0;
  const std::size_t m = v.arity();
  for (std::size_t a = 0; a < m; ++a) {
    acc = P::Add(acc, AttrDistance(v, q, a, row));
    if (acc > raw) return kInf;
  }
  return P::Total(acc);
}

/// The full per-row threshold kernel: variance-ordered reject pre-pass,
/// then (for the sums) the canonical recompute. `raw` and `reject` are
/// NormPolicy<N>::Raw and ::Reject of the threshold. Returns the exact
/// canonical-order distance on accept and +infinity on reject;
/// `certain_rejects` counts the rows the pre-pass dismissed (feeds
/// disc_kernel_certain_rejects_total).
template <LpNorm N>
inline double RowWithin(const ColumnarView& v, const double* q, std::size_t row,
                        double raw, double reject,
                        std::uint64_t* certain_rejects) {
  using P = NormPolicy<N>;
  double acc = 0;
  for (std::size_t a : v.scan_order()) {
    const double d = AttrDistance(v, q, a, row);
    acc = P::Add(acc, d);
    if ((P::kExactReject ? d : acc) > reject) {
      ++*certain_rejects;
      return kInf;
    }
  }
  if constexpr (P::kExactReject) {
    return acc;
  } else {
    return CanonicalWithin<N>(v, q, row, raw);
  }
}

}  // namespace disc::columnar_internal

#endif  // DISC_DISTANCE_COLUMNAR_INTERNAL_H_
