// Tests for the Gelman-Rubin PSRF (paper Eqs 26-29).
#include "diagnostics/gelman_rubin.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "random/samplers.hpp"
#include "support/error.hpp"

namespace {

using srm::diagnostics::gelman_rubin;

std::vector<double> normal_chain(std::uint64_t seed, int n, double mean,
                                 double sd) {
  srm::random::Rng rng(seed);
  std::vector<double> chain;
  chain.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    chain.push_back(srm::random::sample_normal(rng, mean, sd));
  }
  return chain;
}

TEST(GelmanRubin, IidChainsGivePsrfNearOne) {
  const std::vector<std::vector<double>> chains{
      normal_chain(1, 5000, 0.0, 1.0), normal_chain(2, 5000, 0.0, 1.0),
      normal_chain(3, 5000, 0.0, 1.0)};
  const auto result = gelman_rubin(chains);
  EXPECT_NEAR(result.psrf, 1.0, 0.01);
  EXPECT_LT(result.psrf, srm::diagnostics::kPsrfThreshold);
}

TEST(GelmanRubin, SeparatedChainsExceedThreshold) {
  const std::vector<std::vector<double>> chains{
      normal_chain(1, 2000, 0.0, 1.0), normal_chain(2, 2000, 5.0, 1.0)};
  const auto result = gelman_rubin(chains);
  EXPECT_GT(result.psrf, srm::diagnostics::kPsrfThreshold);
  EXPECT_GT(result.between_chain_variance, 1.0);
}

TEST(GelmanRubin, HandComputedSmallCase) {
  // chains: {1,3} and {2,6}; means 2 and 4, variances 2 and 8.
  // W = 5; B/n = ((2-3)^2 + (4-3)^2)/(2-1) = 2; V = (1/2)*5 + 2 = 4.5;
  // PSRF = sqrt(4.5/5) = 0.9486832980505138.
  const std::vector<std::vector<double>> chains{{1.0, 3.0}, {2.0, 6.0}};
  const auto result = gelman_rubin(chains);
  EXPECT_NEAR(result.within_chain_variance, 5.0, 1e-12);
  EXPECT_NEAR(result.between_chain_variance, 2.0, 1e-12);
  EXPECT_NEAR(result.pooled_variance, 4.5, 1e-12);
  EXPECT_NEAR(result.psrf, std::sqrt(0.9), 1e-12);
}

TEST(GelmanRubin, IdenticalConstantChainsConverged) {
  const std::vector<std::vector<double>> chains{{2.0, 2.0, 2.0},
                                                {2.0, 2.0, 2.0}};
  EXPECT_DOUBLE_EQ(gelman_rubin(chains).psrf, 1.0);
}

TEST(GelmanRubin, DistinctConstantChainsNeverMix) {
  const std::vector<std::vector<double>> chains{{1.0, 1.0, 1.0},
                                                {2.0, 2.0, 2.0}};
  EXPECT_TRUE(std::isinf(gelman_rubin(chains).psrf));
}

TEST(GelmanRubin, RequiresTwoEqualLengthChains) {
  EXPECT_THROW(gelman_rubin({{1.0, 2.0}}), srm::InvalidArgument);
  EXPECT_THROW(gelman_rubin({{1.0, 2.0}, {1.0}}), srm::InvalidArgument);
  EXPECT_THROW(gelman_rubin({{1.0}, {2.0}}), srm::InvalidArgument);
}

TEST(GelmanRubin, McmcRunOverload) {
  srm::mcmc::McmcRun run({"x"}, 2);
  srm::random::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    run.accumulate(0, std::vector<double>{srm::random::sample_normal(rng)},
                   nullptr);
    run.accumulate(1, std::vector<double>{srm::random::sample_normal(rng)},
                   nullptr);
  }
  EXPECT_NEAR(gelman_rubin(run, 0).psrf, 1.0, 0.02);
}

}  // namespace
