// The SIMD backend the compiler targets under the build's flags, selected
// at compile time from the target ISA (no runtime CPUID in library code):
//
//   backend   selected when
//   -------   ------------------------------
//   avx2      __AVX2__
//   sse2      __SSE2__ / x86-64 baseline
//   neon      __aarch64__
//   scalar    everything else
//
// No sampler kernel uses SIMD lanes: every fit runs the scalar Gibbs scan.
// The name is recorded next to benchmark results so a measurement says
// which instruction set its compiler could assume. This directory remains
// the one place ISA-specific code may live (srm-lint `raw-intrinsics`).
#pragma once

namespace srm::simd {

#if defined(__AVX2__)
inline constexpr const char* kIsaName = "avx2";
#elif defined(__SSE2__) || defined(_M_X64)
inline constexpr const char* kIsaName = "sse2";
#elif defined(__aarch64__)
inline constexpr const char* kIsaName = "neon";
#else
inline constexpr const char* kIsaName = "scalar";
#endif

}  // namespace srm::simd
