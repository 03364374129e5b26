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
// src/CMakeLists.txt): the canonical-order arithmetic below reproduces the
// scalar reference one rounding at a time (separate multiply and add), and
// auto-contraction to FMA would silently change those bits. The reject
// pre-passes use FMA *explicitly* where the kCertainRejectSlack argument
// makes any evaluation order safe.
//
// Intrinsics are enabled per function via the target attribute — the TU
// itself builds at the x86-64 baseline, so a binary containing AVX2 code
// still runs (and is tested, via the DISC_SIMD override) on SSE2-only
// machines. Each kernel is one function template over the norm, and the
// attribute sits on the template itself, so every instantiation carries
// it; the norm's differences are lines inside that body that test the
// compile-time NormPolicy<N>::kExactReject.
// The attribute does not reach lambdas or other functions defined inside
// a target function, so none are: the per-norm dispatch lambdas live only
// in the non-target entry points at the bottom. Baseline-ISA helpers (the
// NormPolicy and the scalar row kernels) may be called from target
// functions — they inline there, and any out-of-line copy stays baseline.

namespace disc::simd {

#ifdef DISC_SIMD_X86

namespace {

namespace ci = disc::columnar_internal;

#define DISC_AVX2 __attribute__((target("avx2,fma")))

// ---------------------------------------------------------------- helpers

DISC_AVX2 inline __m256d Abs256(__m256d x) {
  return _mm256_and_pd(
      x, _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)));
}

inline __m128d Abs128(__m128d x) {
  return _mm_and_pd(
      x, _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL)));
}

/// Bitmask of the rows [i, i+lanes) that are real (< end).
inline unsigned ValidMask(std::size_t i, std::size_t end, unsigned lanes) {
  const std::size_t left = end - i;
  return left >= lanes ? ((1u << lanes) - 1)
                       : ((1u << static_cast<unsigned>(left)) - 1);
}

// ------------------------------------------------------ norm lane helpers
//
// NormPolicy<N>::Add and ::Total per lane width. maxpd(d, acc) keeps acc
// when d is NaN — the std::max(acc, d) of the policy. `kFused` selects FMA
// for the L2 square-add: allowed in reject pre-passes (the slack covers
// any rounding), never in values that escape (separate mul + add, the
// scalar sequence).

template <LpNorm N, bool kFused>
DISC_AVX2 inline __m256d Add256(__m256d acc, __m256d d) {
  if constexpr (N == LpNorm::kL2) {
    if constexpr (kFused) {
      return _mm256_fmadd_pd(d, d, acc);
    } else {
      return _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
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

template <LpNorm N>
inline __m128d Add128(__m128d acc, __m128d d) {
  if constexpr (N == LpNorm::kL2) {
    return _mm_add_pd(acc, _mm_mul_pd(d, d));
  } else if constexpr (N == LpNorm::kL1) {
    return _mm_add_pd(acc, d);
  } else {
    return _mm_max_pd(d, acc);
  }
}

template <LpNorm N>
inline __m128d Total128(__m128d acc) {
  if constexpr (N == LpNorm::kL2) {
    return _mm_sqrt_pd(acc);
  } else {
    return acc;
  }
}

// ------------------------------------------------------ batch ε-scans
//
// An unaligned scalar head (the full reference kernel, so head rows behave
// identically), then blocks of 4 (AVX2) or 2 (SSE2) rows. Each block runs
// the variance-ordered reject pre-pass across lanes with a sticky per-lane
// reject mask — once a lane crosses the reject threshold it stays rejected
// even if later terms are NaN — and breaks out early when every *valid*
// lane has rejected. Surviving lanes are exact for L∞ (max is
// order-independent) and recomputed by the canonical scalar recurrence for
// the sums, so reported rows and distances are bit-identical to the scalar
// path (pad lanes beyond n hold zeros: always load-safe, masked out of
// verdicts and counts). A hit sink that returns false stops the scan after
// the block that reported it; the body returns how many rows it scanned.
// SSE2 is the x86-64 baseline, so its body needs no target attribute and
// adds with a separate multiply (also safe under the slack argument).

template <LpNorm N>
DISC_AVX2 std::size_t ScanAvx2(const ColumnarView& v, const double* q,
                               double epsilon, std::size_t begin,
                               std::size_t end, HitFn hit, void* ctx,
                               std::uint64_t* cr) {
  using P = ci::NormPolicy<N>;
  const double raw = P::Raw(epsilon);
  const double reject = P::Reject(epsilon);
  bool go = true;
  std::size_t i = begin;
  for (; go && i < end && (i & 3) != 0; ++i) {
    double d = ci::RowWithin<N>(v, q, i, raw, reject, cr);
    if (d <= epsilon) go = hit(ctx, i, d);
  }
  const std::span<const std::size_t> order = v.scan_order();
  const std::size_t m = v.arity();
  const __m256d vreject = _mm256_set1_pd(reject);
  for (; go && i < end; i += 4) {
    const unsigned valid = ValidMask(i, end, 4);
    __m256d acc = _mm256_setzero_pd();
    __m256d rejected = _mm256_setzero_pd();
    unsigned rej = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t a = order[k];
      const __m256d d = Abs256(
          _mm256_sub_pd(_mm256_set1_pd(q[a]), _mm256_load_pd(v.column(a) + i)));
      acc = Add256<N, /*kFused=*/true>(acc, d);
      // L∞ tests each term (exact), the sums their running total (slackened).
      const __m256d tested = P::kExactReject ? d : acc;
      rejected =
          _mm256_or_pd(rejected, _mm256_cmp_pd(tested, vreject, _CMP_GT_OQ));
      rej = static_cast<unsigned>(_mm256_movemask_pd(rejected));
      if ((rej & valid) == valid) break;
    }
    *cr += std::popcount(rej & valid);
    unsigned live = ~rej & valid;
    double lanes[4];
    if (P::kExactReject && live != 0) _mm256_storeu_pd(lanes, acc);
    while (live != 0) {
      const auto l = static_cast<unsigned>(std::countr_zero(live));
      live &= live - 1;
      const double d = P::kExactReject
                           ? lanes[l]
                           : ci::CanonicalWithin<N>(v, q, i + l, raw);
      if (d <= epsilon) go = hit(ctx, i + l, d) && go;
    }
  }
  return std::min(i, end) - begin;
}

template <LpNorm N>
std::size_t ScanSse2(const ColumnarView& v, const double* q, double epsilon,
                     std::size_t begin, std::size_t end, HitFn hit, void* ctx,
                     std::uint64_t* cr) {
  using P = ci::NormPolicy<N>;
  const double raw = P::Raw(epsilon);
  const double reject = P::Reject(epsilon);
  bool go = true;
  std::size_t i = begin;
  for (; go && i < end && (i & 1) != 0; ++i) {
    double d = ci::RowWithin<N>(v, q, i, raw, reject, cr);
    if (d <= epsilon) go = hit(ctx, i, d);
  }
  const std::span<const std::size_t> order = v.scan_order();
  const std::size_t m = v.arity();
  const __m128d vreject = _mm_set1_pd(reject);
  for (; go && i < end; i += 2) {
    const unsigned valid = ValidMask(i, end, 2);
    __m128d acc = _mm_setzero_pd();
    __m128d rejected = _mm_setzero_pd();
    unsigned rej = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t a = order[k];
      const __m128d d =
          Abs128(_mm_sub_pd(_mm_set1_pd(q[a]), _mm_load_pd(v.column(a) + i)));
      acc = Add128<N>(acc, d);
      const __m128d tested = P::kExactReject ? d : acc;
      rejected = _mm_or_pd(rejected, _mm_cmpgt_pd(tested, vreject));
      rej = static_cast<unsigned>(_mm_movemask_pd(rejected));
      if ((rej & valid) == valid) break;
    }
    *cr += std::popcount(rej & valid);
    unsigned live = ~rej & valid;
    double lanes[2];
    if (P::kExactReject && live != 0) _mm_storeu_pd(lanes, acc);
    while (live != 0) {
      const auto l = static_cast<unsigned>(std::countr_zero(live));
      live &= live - 1;
      const double d = P::kExactReject
                           ? lanes[l]
                           : ci::CanonicalWithin<N>(v, q, i + l, raw);
      if (d <= epsilon) go = hit(ctx, i + l, d) && go;
    }
  }
  return std::min(i, end) - begin;
}

// ---------------------------------------------- full-distance batch fills
//
// No pre-pass and no recompute: the per-row sum runs in canonical
// attribute order with separate multiply and add — exactly one rounding
// per operation, in the scalar sequence — and sqrt is correctly rounded,
// so vectorizing across rows is bit-identical by construction (including
// NaN/±inf propagation). The scalar-vs-SIMD distinction is unobservable.

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
      acc = Add256<N, /*kFused=*/false>(acc, d);
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

template <LpNorm N>
void FillSse2(const ColumnarView& v, const double* q, std::size_t begin,
              std::size_t end, double* out) {
  const std::size_t m = v.arity();
  std::size_t i = begin;
  for (; i < end && (i & 1) != 0; ++i) {
    out[i - begin] = ci::CanonicalDistance<N>(v, q, i);
  }
  for (; i < end; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t a = 0; a < m; ++a) {
      const __m128d d =
          Abs128(_mm_sub_pd(_mm_set1_pd(q[a]), _mm_load_pd(v.column(a) + i)));
      acc = Add128<N>(acc, d);
    }
    acc = Total128<N>(acc);
    if (end - i >= 2) {
      _mm_storeu_pd(out + (i - begin), acc);
    } else {
      out[i - begin] = _mm_cvtsd_f64(acc);
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

void FillAttrSse2(const double* col, double q, std::size_t n, double* out) {
  const __m128d vq = _mm_set1_pd(q);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i, Abs128(_mm_sub_pd(vq, _mm_load_pd(col + i))));
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
  if (tier == SimdTier::kScalar) return false;
  std::uint64_t cr = 0;
  const std::size_t scanned = ci::WithNorm(v.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    return tier == SimdTier::kAvx2
               ? ScanAvx2<N>(v, q, epsilon, begin, end, hit, ctx, &cr)
               : ScanSse2<N>(v, q, epsilon, begin, end, hit, ctx, &cr);
  });
  delta->rows_scanned += scanned;
  delta->certain_rejects += cr;
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
  if (tier == SimdTier::kScalar) return false;
  ci::WithNorm(v.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    if (tier == SimdTier::kAvx2) {
      FillAvx2<N>(v, q, begin, end, out);
    } else {
      FillSse2<N>(v, q, begin, end, out);
    }
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
  if (tier == SimdTier::kScalar) return false;
  if (tier == SimdTier::kAvx2) {
    FillAttrAvx2(v.column(a), q_a, v.rows(), out);
  } else {
    FillAttrSse2(v.column(a), q_a, v.rows(), out);
  }
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
