// Tests for the residual-posterior summary type.
#include "core/posterior.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

namespace core = srm::core;

srm::mcmc::McmcRun run_with_residuals(const std::vector<double>& residuals) {
  srm::mcmc::McmcRun run({"residual", "lambda0"}, 1);
  for (const double r : residuals) {
    run.accumulate(0, std::vector<double>{r, 10.0}, nullptr);
  }
  return run;
}

TEST(ResidualPosterior, SummaryFromKnownSamples) {
  const auto run = run_with_residuals({1, 2, 2, 3, 3, 3, 4, 10});
  const auto posterior = core::summarize_residual_posterior(run);
  EXPECT_EQ(posterior.summary.mode, 3);
  EXPECT_EQ(posterior.summary.min, 1);
  EXPECT_EQ(posterior.summary.max, 10);
  EXPECT_NEAR(posterior.summary.mean, 3.5, 1e-12);
  EXPECT_EQ(posterior.samples.size(), 8u);
}

TEST(ResidualPosterior, CredibleIntervalCoversCentralMass) {
  std::vector<double> residuals;
  for (int i = 0; i < 1000; ++i) {
    residuals.push_back(static_cast<double>(i % 100));  // uniform on 0..99
  }
  const auto posterior =
      core::summarize_residual_posterior(run_with_residuals(residuals));
  const auto [lo, hi] = posterior.credible_interval(0.9);
  EXPECT_NEAR(static_cast<double>(lo), 5.0, 2.0);
  EXPECT_NEAR(static_cast<double>(hi), 95.0, 2.0);
  EXPECT_LT(lo, hi);
}

TEST(ResidualPosterior, ProbabilityAtMostMatchesEmpiricalCdf) {
  const auto posterior = core::summarize_residual_posterior(
      run_with_residuals({0, 0, 1, 2, 5, 9}));
  EXPECT_NEAR(posterior.probability_at_most(0), 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(2), 4.0 / 6.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(9), 1.0, 1e-12);
  EXPECT_NEAR(posterior.probability_at_most(-1), 0.0, 1e-12);
}

TEST(ResidualPosterior, CredibleLevelValidation) {
  const auto posterior =
      core::summarize_residual_posterior(run_with_residuals({1, 2, 3}));
  EXPECT_THROW((void)posterior.credible_interval(0.0), srm::InvalidArgument);
  EXPECT_THROW((void)posterior.credible_interval(1.0), srm::InvalidArgument);
}

}  // namespace
