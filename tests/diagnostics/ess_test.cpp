// Tests for the effective sample size estimator.
#include "diagnostics/ess.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "random/samplers.hpp"
#include "support/error.hpp"

namespace {

using srm::diagnostics::effective_sample_size;

TEST(Ess, IidChainHasEssNearN) {
  srm::random::Rng rng(1);
  std::vector<double> chain;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    chain.push_back(srm::random::sample_normal(rng));
  }
  EXPECT_GT(effective_sample_size(chain), 0.8 * n);
}

TEST(Ess, Ar1ChainMatchesTheory) {
  // AR(1) with coefficient rho has integrated autocorrelation time
  // tau = (1 + rho) / (1 - rho), and ESS = n / tau.
  for (const double rho : {0.5, 0.9}) {
    srm::random::Rng rng(static_cast<std::uint64_t>(rho * 100));
    std::vector<double> chain;
    double x = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
      x = rho * x + srm::random::sample_normal(rng);
      chain.push_back(x);
    }
    const double tau = n / effective_sample_size(chain);
    const double expected = (1.0 + rho) / (1.0 - rho);
    EXPECT_NEAR(tau, expected, 0.25 * expected) << "rho=" << rho;
  }
}

TEST(Ess, ConstantChainReportsFullSize) {
  const std::vector<double> chain(100, 5.0);
  EXPECT_DOUBLE_EQ(effective_sample_size(chain), 100.0);
}

TEST(Ess, ClampedToAtLeastOne) {
  // A pathological perfectly-correlated chain cannot report ESS < 1.
  std::vector<double> chain;
  for (int i = 0; i < 100; ++i) chain.push_back(static_cast<double>(i));
  EXPECT_GE(effective_sample_size(chain), 1.0);
  EXPECT_LE(effective_sample_size(chain), 100.0);
}

TEST(Ess, TooShortChainThrows) {
  EXPECT_THROW(effective_sample_size(std::vector<double>{1.0, 2.0}),
               srm::InvalidArgument);
}

}  // namespace
