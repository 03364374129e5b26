#include "distance/columnar_simd.h"

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

DISC_AVX2 inline double HSum256(__m256d x) {
  __m128d lo = _mm256_castpd256_pd128(x);
  __m128d hi = _mm256_extractf128_pd(x, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

DISC_AVX2 inline double HMax256(__m256d x) {
  __m128d lo = _mm256_castpd256_pd128(x);
  __m128d hi = _mm256_extractf128_pd(x, 1);
  lo = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(lo, _mm_unpackhi_pd(lo, lo)));
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
// verdicts and counts). SSE2 is the x86-64 baseline, so its body needs no
// target attribute and adds with a separate multiply (also safe under the
// slack argument).

template <LpNorm N>
DISC_AVX2 void ScanAvx2(const ColumnarView& v, const double* q, double epsilon,
                        std::size_t begin, std::size_t end, HitFn hit,
                        void* ctx, std::uint64_t* cr) {
  using P = ci::NormPolicy<N>;
  const bool unit = v.unit_scales();
  const double raw = P::Raw(epsilon);
  const double reject = P::Reject(epsilon);
  std::size_t i = begin;
  for (; i < end && (i & 3) != 0; ++i) {
    double d = ci::RowWithin<N>(v, q, i, raw, reject, unit, cr);
    if (d <= epsilon) hit(ctx, i, d);
  }
  const std::span<const std::size_t> order = v.scan_order();
  const std::size_t m = v.arity();
  const __m256d vreject = _mm256_set1_pd(reject);
  for (; i < end; i += 4) {
    const unsigned valid = ValidMask(i, end, 4);
    __m256d acc = _mm256_setzero_pd();
    __m256d rejected = _mm256_setzero_pd();
    unsigned rej = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t a = order[k];
      __m256d d = Abs256(
          _mm256_sub_pd(_mm256_set1_pd(q[a]), _mm256_load_pd(v.column(a) + i)));
      if (!unit) d = _mm256_div_pd(d, _mm256_set1_pd(v.scale(a)));
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
                           : ci::CanonicalWithin<N>(v, q, i + l, raw, unit);
      if (d <= epsilon) hit(ctx, i + l, d);
    }
  }
}

template <LpNorm N>
void ScanSse2(const ColumnarView& v, const double* q, double epsilon,
              std::size_t begin, std::size_t end, HitFn hit, void* ctx,
              std::uint64_t* cr) {
  using P = ci::NormPolicy<N>;
  const bool unit = v.unit_scales();
  const double raw = P::Raw(epsilon);
  const double reject = P::Reject(epsilon);
  std::size_t i = begin;
  for (; i < end && (i & 1) != 0; ++i) {
    double d = ci::RowWithin<N>(v, q, i, raw, reject, unit, cr);
    if (d <= epsilon) hit(ctx, i, d);
  }
  const std::span<const std::size_t> order = v.scan_order();
  const std::size_t m = v.arity();
  const __m128d vreject = _mm_set1_pd(reject);
  for (; i < end; i += 2) {
    const unsigned valid = ValidMask(i, end, 2);
    __m128d acc = _mm_setzero_pd();
    __m128d rejected = _mm_setzero_pd();
    unsigned rej = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t a = order[k];
      __m128d d =
          Abs128(_mm_sub_pd(_mm_set1_pd(q[a]), _mm_load_pd(v.column(a) + i)));
      if (!unit) d = _mm_div_pd(d, _mm_set1_pd(v.scale(a)));
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
                           : ci::CanonicalWithin<N>(v, q, i + l, raw, unit);
      if (d <= epsilon) hit(ctx, i + l, d);
    }
  }
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
  const bool unit = v.unit_scales();
  const std::size_t m = v.arity();
  std::size_t i = begin;
  for (; i < end && (i & 3) != 0; ++i) {
    out[i - begin] = ci::CanonicalDistance<N>(v, q, i, unit);
  }
  for (; i < end; i += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t a = 0; a < m; ++a) {
      __m256d d = Abs256(
          _mm256_sub_pd(_mm256_set1_pd(q[a]), _mm256_load_pd(v.column(a) + i)));
      if (!unit) d = _mm256_div_pd(d, _mm256_set1_pd(v.scale(a)));
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
  const bool unit = v.unit_scales();
  const std::size_t m = v.arity();
  std::size_t i = begin;
  for (; i < end && (i & 1) != 0; ++i) {
    out[i - begin] = ci::CanonicalDistance<N>(v, q, i, unit);
  }
  for (; i < end; i += 2) {
    __m128d acc = _mm_setzero_pd();
    for (std::size_t a = 0; a < m; ++a) {
      __m128d d =
          Abs128(_mm_sub_pd(_mm_set1_pd(q[a]), _mm_load_pd(v.column(a) + i)));
      if (!unit) d = _mm_div_pd(d, _mm_set1_pd(v.scale(a)));
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

DISC_AVX2 void FillAttrAvx2(const double* col, double q, double scale,
                            std::size_t n, double* out) {
  const __m256d vq = _mm256_set1_pd(q);
  const __m256d vs = _mm256_set1_pd(scale);
  const bool unit = scale == 1.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d d = Abs256(_mm256_sub_pd(vq, _mm256_load_pd(col + i)));
    if (!unit) d = _mm256_div_pd(d, vs);
    _mm256_storeu_pd(out + i, d);
  }
  for (; i < n; ++i) {
    out[i] = unit ? std::fabs(q - col[i]) : std::fabs(q - col[i]) / scale;
  }
}

void FillAttrSse2(const double* col, double q, double scale, std::size_t n,
                  double* out) {
  const __m128d vq = _mm_set1_pd(q);
  const __m128d vs = _mm_set1_pd(scale);
  const bool unit = scale == 1.0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    __m128d d = Abs128(_mm_sub_pd(vq, _mm_load_pd(col + i)));
    if (!unit) d = _mm_div_pd(d, vs);
    _mm_storeu_pd(out + i, d);
  }
  for (; i < n; ++i) {
    out[i] = unit ? std::fabs(q - col[i]) : std::fabs(q - col[i]) / scale;
  }
}

// ------------------------------------------------ single-row pre-passes
//
// One row, many attributes: lanes span attributes — via i64 gathers over
// the precomputed column offsets (a · padded_rows) for a column view, via
// plain loads for a row-major point. Full 4-attribute blocks run
// vectorized and the final < 4 attributes scalar; the sums' pre-pass is
// order-free under the slack argument, so mixing is fine, and they keep
// the tail apart and compare lane sum + tail at the end. L∞ rejects on any
// term past the threshold and otherwise returns its exact value (the lane
// max folded with the tail terms) — the only case where a pre-pass is the
// source of an accepted value.

template <LpNorm N>
DISC_AVX2 Verdict GatherPrepassAvx2(const ColumnarView& v, const double* q,
                                    const std::size_t* order,
                                    const std::size_t* offs, std::size_t count,
                                    std::size_t row, double threshold,
                                    double* exact_out) {
  using P = ci::NormPolicy<N>;
  const bool unit = v.unit_scales();
  const double* base = v.column(0) + row;
  const double* scales = v.scales();
  const double reject = P::Reject(threshold);
  const __m256d vreject = _mm256_set1_pd(reject);
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(offs + k));
    const __m256i aidx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(order + k));
    __m256d d = Abs256(_mm256_sub_pd(_mm256_i64gather_pd(q, aidx, 8),
                                     _mm256_i64gather_pd(base, idx, 8)));
    if (!unit) d = _mm256_div_pd(d, _mm256_i64gather_pd(scales, aidx, 8));
    if constexpr (P::kExactReject) {
      if (_mm256_movemask_pd(_mm256_cmp_pd(d, vreject, _CMP_GT_OQ)) != 0) {
        return Verdict::kCertainReject;
      }
    }
    acc = Add256<N, /*kFused=*/true>(acc, d);
    if constexpr (!P::kExactReject) {
      if (HSum256(acc) > reject) return Verdict::kCertainReject;
    }
  }
  // Lanes are NaN-free under L∞: maxpd dropped NaN terms.
  double tail = P::kExactReject ? HMax256(acc) : 0;
  for (; k < count; ++k) {
    const std::size_t a = order[k];
    double d = std::fabs(q[a] - base[offs[k]]);
    if (!unit) d /= scales[a];
    if (P::kExactReject && d > reject) return Verdict::kCertainReject;
    tail = P::Add(tail, d);
  }
  if constexpr (P::kExactReject) {
    *exact_out = tail;
    return Verdict::kExact;
  } else {
    return HSum256(acc) + tail > reject ? Verdict::kCertainReject
                                        : Verdict::kMaybeWithin;
  }
}

template <LpNorm N>
DISC_AVX2 Verdict PointPrepassAvx2(const double* q, const double* p,
                                   std::size_t m, double threshold,
                                   double* exact_out) {
  using P = ci::NormPolicy<N>;
  const double reject = P::Reject(threshold);
  const __m256d vreject = _mm256_set1_pd(reject);
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    __m256d d =
        Abs256(_mm256_sub_pd(_mm256_loadu_pd(q + k), _mm256_loadu_pd(p + k)));
    if constexpr (P::kExactReject) {
      if (_mm256_movemask_pd(_mm256_cmp_pd(d, vreject, _CMP_GT_OQ)) != 0) {
        return Verdict::kCertainReject;
      }
    }
    acc = Add256<N, /*kFused=*/true>(acc, d);
  }
  double tail = P::kExactReject ? HMax256(acc) : 0;
  for (; k < m; ++k) {
    const double d = std::fabs(q[k] - p[k]);
    if (P::kExactReject && d > reject) return Verdict::kCertainReject;
    tail = P::Add(tail, d);
  }
  if constexpr (P::kExactReject) {
    *exact_out = tail;
    return Verdict::kExact;
  } else {
    return HSum256(acc) + tail > reject ? Verdict::kCertainReject
                                        : Verdict::kMaybeWithin;
  }
}

#undef DISC_AVX2

/// The gather pre-pass at the view's norm, over `count` attributes.
Verdict GatherPrepass(const ColumnarView& v, const double* q,
                      const std::size_t* order, const std::size_t* offs,
                      std::size_t count, std::size_t row, double threshold,
                      double* exact_out) {
  return ci::WithNorm(v.norm(), [&](auto norm) {
    return GatherPrepassAvx2<decltype(norm)::value>(v, q, order, offs, count,
                                                    row, threshold, exact_out);
  });
}

}  // namespace

#endif  // DISC_SIMD_X86

// ------------------------------------------------------- dispatch surface

bool ScanWithin(SimdTier tier, const ColumnarView& v, const double* q,
                double epsilon, std::size_t begin, std::size_t end, HitFn hit,
                void* ctx, ScanDelta* delta) {
#ifdef DISC_SIMD_X86
  if (tier == SimdTier::kScalar) return false;
  std::uint64_t cr = 0;
  ci::WithNorm(v.norm(), [&](auto norm) {
    constexpr LpNorm N = decltype(norm)::value;
    if (tier == SimdTier::kAvx2) {
      ScanAvx2<N>(v, q, epsilon, begin, end, hit, ctx, &cr);
    } else {
      ScanSse2<N>(v, q, epsilon, begin, end, hit, ctx, &cr);
    }
  });
  delta->rows_scanned += end - begin;
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
    FillAttrAvx2(v.column(a), q_a, v.scale(a), v.rows(), out);
  } else {
    FillAttrSse2(v.column(a), q_a, v.scale(a), v.rows(), out);
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

Verdict DistanceWithinPrepass(SimdTier tier, const ColumnarView& v,
                              const double* q, std::size_t row,
                              double threshold, double* exact_out) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2 || v.arity() < kGatherMinArity) {
    return Verdict::kUnsupported;
  }
  return GatherPrepass(v, q, v.scan_order().data(), v.scan_offsets().data(),
                       v.arity(), row, threshold, exact_out);
#else
  (void)tier;
  (void)v;
  (void)q;
  (void)row;
  (void)threshold;
  (void)exact_out;
  return Verdict::kUnsupported;
#endif
}

Verdict DistanceOnWithinPrepass(SimdTier tier, const ColumnarView& v,
                                const double* q, std::uint64_t bits,
                                std::size_t row, double threshold,
                                double* exact_out) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2 ||
      static_cast<std::size_t>(std::popcount(bits)) < kGatherMinArity) {
    return Verdict::kUnsupported;
  }
  std::size_t order[64];
  std::size_t offs[64];
  std::size_t count = 0;
  const std::size_t stride = v.padded_rows();
  for (; bits != 0; bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    order[count] = a;
    offs[count] = a * stride;
    ++count;
  }
  return GatherPrepass(v, q, order, offs, count, row, threshold, exact_out);
#else
  (void)tier;
  (void)v;
  (void)q;
  (void)bits;
  (void)row;
  (void)threshold;
  (void)exact_out;
  return Verdict::kUnsupported;
#endif
}

Verdict PointWithinPrepass(SimdTier tier, const double* q, const double* p,
                           std::size_t m, LpNorm norm, double threshold,
                           double* exact_out) {
#ifdef DISC_SIMD_X86
  if (tier != SimdTier::kAvx2 || m < kPointMinArity) {
    return Verdict::kUnsupported;
  }
  return ci::WithNorm(norm, [&](auto n) {
    return PointPrepassAvx2<decltype(n)::value>(q, p, m, threshold, exact_out);
  });
#else
  (void)tier;
  (void)q;
  (void)p;
  (void)m;
  (void)norm;
  (void)threshold;
  (void)exact_out;
  return Verdict::kUnsupported;
#endif
}

}  // namespace disc::simd
