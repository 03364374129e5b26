#ifndef DISC_COMMON_CPU_FEATURES_H_
#define DISC_COMMON_CPU_FEATURES_H_

#include <optional>
#include <string_view>

namespace disc {

/// Instruction-set tier of the hand-vectorized distance kernels
/// (distance/columnar_simd.h, DESIGN.md §12). Ordered: a higher tier is a
/// strict superset of the lower ones, so "clamp to the minimum of requested
/// and supported" is always a safe resolution. The values are those of the
/// disc_simd_tier gauge; 1 is unused.
enum class SimdTier {
  kScalar = 0,  ///< portable reference kernels (distance/columnar.cc)
  kAvx2 = 2,    ///< 4-wide double lanes
};

/// Lower-case tier name for metrics labels, /statusz and logs:
/// "scalar" | "avx2".
const char* SimdTierName(SimdTier tier);

/// Parses a DISC_SIMD override value. Accepts the tier names plus "off"
/// (alias for "scalar"); "auto" and "" mean no override. Unknown values
/// return nullopt-with-no-override semantics at the caller (ResolveSimdTier
/// treats them as "auto" and logs a warning once).
std::optional<SimdTier> ParseSimdTier(std::string_view value);

/// The widest tier this *binary* carries kernels for — kAvx2 on an x86-64
/// build, kScalar when DISC_SIMD=OFF or on non-x86 targets. Build metadata
/// for /healthz and /statusz: together with DetectedSimdTier and
/// ActiveSimdTier it distinguishes "compiled out" from "CPU lacks it" from
/// "narrowed by DISC_SIMD".
SimdTier CompiledSimdTier();

/// The widest tier this CPU can execute, probed once via CPUID. On non-x86
/// builds, or when the CMake option DISC_SIMD is OFF, this is kScalar.
SimdTier DetectedSimdTier();

/// Pure resolution rule, split out for testability: the effective tier is
/// min(requested, detected) — an override can disable width the CPU has,
/// never enable width it lacks (forcing "avx2" on a machine without AVX2
/// must not SIGILL, it degrades to scalar). `env_value` is the raw
/// DISC_SIMD string (nullptr/""/"auto" = no override).
SimdTier ResolveSimdTier(const char* env_value, SimdTier detected);

/// The tier every kernel dispatches on: ResolveSimdTier(getenv("DISC_SIMD"),
/// DetectedSimdTier()), resolved once on first use and latched for the
/// process lifetime (per-call getenv in the hot path would defeat the
/// point; a latched tier also keeps one run's results trivially coherent).
SimdTier ActiveSimdTier();

}  // namespace disc

#endif  // DISC_COMMON_CPU_FEATURES_H_
