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
/// rows. Not part of the public surface: outside the distance library only
/// the band and donor loops of core/bounds.cc use it, for NormPolicy and
/// WithNorm.
namespace disc::columnar_internal {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The norm's arithmetic (paper Formula 1) — the one definition every
/// columnar kernel and bound loop instantiates, scalar and vector tiers
/// alike, so each kernel body is written once and the norm is a
/// compile-time constant.
/// The vector lane helpers of columnar_simd.cc mirror Add and Total
/// intrinsic for intrinsic.
///
/// It performs LpAccumulator's operations but deliberately shares no code
/// with it: LpAccumulator and DistanceEvaluator are the independent
/// reference the parity suites hold these kernels to, so a slip here cannot
/// also hide in the reference.
template <LpNorm N>
struct NormPolicy {
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

/// Canonical threshold kernel: the exact LpAccumulator recurrence in
/// increasing attribute order, with DistanceEvaluator::DistanceWithin's
/// strict `acc > raw` early exit after every add and a single Total when no
/// add crossed. `raw` is NormPolicy<N>::Raw(threshold). Returns +infinity
/// on an early exit and counts it in `rejects` (feeds
/// disc_kernel_certain_rejects_total).
template <LpNorm N>
inline double CanonicalWithin(const ColumnarView& v, const double* q,
                              std::size_t row, double raw,
                              std::uint64_t* rejects) {
  using P = NormPolicy<N>;
  double acc = 0;
  const std::size_t m = v.arity();
  for (std::size_t a = 0; a < m; ++a) {
    acc = P::Add(acc, AttrDistance(v, q, a, row));
    if (acc > raw) {
      ++*rejects;
      return kInf;
    }
  }
  return P::Total(acc);
}

}  // namespace disc::columnar_internal

#endif  // DISC_DISTANCE_COLUMNAR_INTERNAL_H_
