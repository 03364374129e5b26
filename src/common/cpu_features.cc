#include "common/cpu_features.h"

#include <cstdlib>
#include <string>

#include "common/log.h"

namespace disc {

namespace {

/// True when the binary carries any vector kernels at all. The CMake option
/// DISC_SIMD=OFF defines DISC_SIMD_DISABLED and pins everything to scalar;
/// non-x86 targets have no hand-written kernels yet either.
#if !defined(DISC_SIMD_DISABLED) && (defined(__x86_64__) || defined(__amd64__))
constexpr bool kSimdCompiledIn = true;
#else
constexpr bool kSimdCompiledIn = false;
#endif

SimdTier Probe() {
#if !defined(DISC_SIMD_DISABLED) && (defined(__x86_64__) || defined(__amd64__))
  // __builtin_cpu_supports folds in the OS XSAVE/ymm-state check, so a
  // kernel that disabled AVX state reports unsupported here — exactly what
  // dispatch needs.
  if (__builtin_cpu_supports("avx2")) return SimdTier::kAvx2;
#endif
  return SimdTier::kScalar;
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kAvx2:
      return "avx2";
  }
  return "scalar";
}

std::optional<SimdTier> ParseSimdTier(std::string_view value) {
  if (value == "off" || value == "scalar" || value == "OFF") {
    return SimdTier::kScalar;
  }
  if (value == "avx2" || value == "AVX2") return SimdTier::kAvx2;
  return std::nullopt;
}

SimdTier CompiledSimdTier() {
  return kSimdCompiledIn ? SimdTier::kAvx2 : SimdTier::kScalar;
}

SimdTier DetectedSimdTier() {
  static const SimdTier tier = Probe();
  return tier;
}

SimdTier ResolveSimdTier(const char* env_value, SimdTier detected) {
  if (env_value == nullptr) return detected;
  std::string_view value(env_value);
  if (value.empty() || value == "auto") return detected;
  std::optional<SimdTier> requested = ParseSimdTier(value);
  if (!requested.has_value()) {
    DISC_LOG(WARN)
            .Str("value", std::string(value))
            .Str("detected", SimdTierName(detected))
        << "unknown DISC_SIMD value, using auto detection";
    return detected;
  }
  // An override narrows, never widens: forcing "avx2" on a machine without
  // it must degrade to what the CPU can run, not SIGILL.
  return std::min(*requested, detected);
}

SimdTier ActiveSimdTier() {
  static const SimdTier tier =
      ResolveSimdTier(std::getenv("DISC_SIMD"), DetectedSimdTier());
  return tier;
}

}  // namespace disc
