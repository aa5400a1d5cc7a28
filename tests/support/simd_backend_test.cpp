// The compile-time SIMD backend name that bench/perf records next to every
// measurement as `simd_isa`.
#include "support/simd/lanes.hpp"

#include <string>

#include <gtest/gtest.h>

namespace {

TEST(SimdBackend, IsaNameIsKnown) {
  const std::string isa = srm::simd::kIsaName;
  EXPECT_TRUE(isa == "avx2" || isa == "sse2" || isa == "neon" ||
              isa == "scalar")
      << isa;
}

}  // namespace
