#include "distance/columnar_simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "distance/columnar.h"
#include "distance/columnar_internal.h"

#if !defined(DISC_SIMD_DISABLED) && (defined(__x86_64__) || defined(__amd64__))
#define DISC_SIMD_X86 1
#include <immintrin.h>
#endif

// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt): the kernels below reproduce the scalar reference one
// rounding at a time (separate multiply and add), and contraction to a
// fused multiply-add would silently change those bits.
//
// Intrinsics are enabled per function via the target attribute — the TU
// itself builds at the x86-64 baseline, so a binary containing AVX2 code
// still runs (on the scalar tier) on machines without it. Each kernel is
// one function template over the norm, and the attribute sits on the
// template itself, so every instantiation carries it.
// The attribute does not reach lambdas or other functions defined inside
// a target function, so none are: the per-norm dispatch lambdas live only
// in the non-target entry points at the bottom. Baseline-ISA helpers (the
// NormPolicy and the scalar row kernels) may be called from target
// functions — they inline there, and any out-of-line copy stays baseline.

namespace disc::simd {

#ifdef DISC_SIMD_X86

namespace {

namespace ci = disc::columnar_internal;

#define DISC_AVX2 __attribute__((target("avx2")))

// ---------------------------------------------------------------- helpers

DISC_AVX2 inline __m256d Abs256(__m256d x) {
  return _mm256_and_pd(
      x, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
}

/// Bitmask of the rows [i, i+lanes) that are real (< end).
inline unsigned ValidMask(std::size_t i, std::size_t end, unsigned lanes) {
  const std::size_t left = end - i;
  return left >= lanes ? ((1u << lanes) - 1)
                       : ((1u << static_cast<unsigned>(left)) - 1);
}

// ------------------------------------------------------ norm lane helpers
//
// NormPolicy<N>::Add and ::Total, four lanes at a time: a separate multiply
// and add for L2, as in the scalar sequence. maxpd(d, acc) keeps acc when d
// is NaN — the std::max(acc, d) of the policy.

template <LpNorm N>
DISC_AVX2 inline __m256d Add256(__m256d acc, __m256d d) {
  if constexpr (N == LpNorm::kL2) {
    return _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  } else if constexpr (N == LpNorm::kL1) {
    return _mm256_add_pd(acc, d);
  } else {
    return _mm256_max_pd(d, acc);
  }
}

template <LpNorm N>
DISC_AVX2 inline __m256d Total256(__m256d acc) {
  if constexpr (N == LpNorm::kL2) {
    return _mm256_sqrt_pd(acc);
  } else {
    return acc;
  }
}

// ------------------------------------------------------ batch ε-scan
//
// An unaligned scalar head (CanonicalWithin, the scalar tier's own row
// kernel), then blocks of 4 rows, each running CanonicalWithin's recurrence
// across lanes: the attributes in canonical order, the same adds, and the
// same `acc > raw` test after every add, kept as a sticky per-lane mask — a
// lane whose row the scalar kernel would have left early stays rejected
// even if a later NaN term makes the compare false. The block stops early
// once every valid lane has rejected. A surviving lane has seen every add
// the scalar kernel makes, in its order, so its Total is the scalar
// distance bit for bit and is emitted straight from the accumulator. Pad
// lanes beyond n hold zeros: always load-safe, masked out of verdicts and
// counts. A hit sink that returns false stops the scan after the block
// that reported it; the body returns how many rows it scanned.

template <LpNorm N>
DISC_AVX2 std::size_t ScanAvx2(const ColumnarView& v, const double* q,
                               double epsilon, std::size_t begin,
                               std::size_t end, HitFn hit, void* ctx,
                               std::uint64_t* rejects) {
  const double raw = ci::NormPolicy<N>::Raw(epsilon);
  bool go = true;
  std::size_t i = begin;
  for (; go && i < end && (i & 3) != 0; ++i) {
    double d = ci::CanonicalWithin<N>(v, q, i, raw, rejects);
    if (d <= epsilon) go = hit(ctx, i, d);
  }
  const std::size_t m = v.arity();
  const __m256d vraw = _mm256_set1_pd(raw);
  for (; go && i < end; i += 4) {
    const unsigned valid = ValidMask(i, end, 4);
    __m256d acc = _mm256_setzero_pd();
    __m256d rejected = _mm256_setzero_pd();
    unsigned rej = 0;
    for (std::size_t a = 0; a < m; ++a) {
      const __m256d d = Abs256(
          _mm256_sub_pd(_mm256_set1_pd(q[a]), _mm256_load_pd(v.column(a) + i)));
      acc = Add256<N>(acc, d);
      rejected =
          _mm256_or_pd(rejected, _mm256_cmp_pd(acc, vraw, _CMP_GT_OQ));
      rej = static_cast<unsigned>(_mm256_movemask_pd(rejected));
      if ((rej & valid) == valid) break;
    }
    *rejects += std::popcount(rej & valid);
    unsigned live = ~rej & valid;
    if (live == 0) continue;
    double lanes[4];
    _mm256_storeu_pd(lanes, Total256<N>(acc));
    while (live != 0) {
      const auto l = static_cast<unsigned>(std::countr_zero(live));
      live &= live - 1;
      if (lanes[l] <= epsilon) go = hit(ctx, i + l, lanes[l]) && go;
    }
  }
  return std::min(i, end) - begin;
}

// ---------------------------------------------- full-distance batch fills
//
// The per-row sum runs in canonical attribute order with separate multiply
// and add — exactly one rounding per operation, in the scalar sequence —
// and sqrt is correctly rounded, so vectorizing across rows is
// bit-identical by construction (including NaN/±inf propagation).

template <LpNorm N>
DISC_AVX2 void FillAvx2(const ColumnarView& v, const double* q,
                        std::size_t begin, std::size_t end, double* out) {
  const std::size_t m = v.arity();
  std::size_t i = begin;
  for (; i < end && (i & 3) != 0; ++i) {
    out[i - begin] = ci::CanonicalDistance<N>(v, q, i);
  }
  for (; i < end; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t a = 0; a < m; ++a) {
      const __m256d d = Abs256(
          _mm256_sub_pd(_mm256_set1_pd(q[a]), _mm256_load_pd(v.column(a) + i)));
      acc = Add256<N>(acc, d);
    }
    acc = Total256<N>(acc);
    if (end - i >= 4) {
      _mm256_storeu_pd(out + (i - begin), acc);
    } else {
      double lanes[4];
      _mm256_storeu_pd(lanes, acc);
      for (std::size_t l = 0; i + l < end; ++l) out[i - begin + l] = lanes[l];
    }
  }
}

// ------------------------------------------ per-attribute batch fills

DISC_AVX2 void FillAttrAvx2(const double* col, double q, std::size_t n,
                            double* out) {
  const __m256d vq = _mm256_set1_pd(q);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     Abs256(_mm256_sub_pd(vq, _mm256_load_pd(col + i))));
  }
  for (; i < n; ++i) out[i] = std::fabs(q - col[i]);
}

#undef DISC_AVX2

}  // namespace

#endif  // DISC_SIMD_X86

// ------------------------------------------------------- dispatch surface

bool ScanWithin(SimdTier tier, const ColumnarView& v, const double* q,
                double epsilon, std::size_t begin, std::size_t end, HitFn hit,
                void* ctx, ScanDelta* delta) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2) return false;
  std::uint64_t rejects = 0;
  const std::size_t scanned = ci::WithNorm(v.norm(), [&](auto norm) {
    return ScanAvx2<decltype(norm)::value>(v, q, epsilon, begin, end, hit,
                                           ctx, &rejects);
  });
  delta->rows_scanned += scanned;
  delta->certain_rejects += rejects;
  return true;
#else
  (void)tier;
  (void)v;
  (void)q;
  (void)epsilon;
  (void)begin;
  (void)end;
  (void)hit;
  (void)ctx;
  (void)delta;
  return false;
#endif
}

bool FillDistances(SimdTier tier, const ColumnarView& v, const double* q,
                   std::size_t begin, std::size_t end, double* out) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2) return false;
  ci::WithNorm(v.norm(), [&](auto norm) {
    FillAvx2<decltype(norm)::value>(v, q, begin, end, out);
  });
  return true;
#else
  (void)tier;
  (void)v;
  (void)q;
  (void)begin;
  (void)end;
  (void)out;
  return false;
#endif
}

bool FillAttributeDistances(SimdTier tier, const ColumnarView& v, double q_a,
                            std::size_t a, double* out) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2) return false;
  FillAttrAvx2(v.column(a), q_a, v.rows(), out);
  return true;
#else
  (void)tier;
  (void)v;
  (void)q_a;
  (void)a;
  (void)out;
  return false;
#endif
}

}  // namespace disc::simd
