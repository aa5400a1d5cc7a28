// Long-chain check of the collapsed scan's frozen post-burn-in kernel on
// the cell whose far mode only the mode jump reaches: poisson/model2 at
// SYS1 day 96 (ROADMAP, Exact posteriors). Its exact residual posterior,
// from quadrature over the collapsed zeta-density, has mean 101.2 and
// sd 54.05; 5.7e-4 of its mass sits where E[R | zeta] > 500, so a chain
// that misses that mode reads a visibly smaller sd. Labelled `slow`
// (about 2 x 50 000 scans): `ctest -LE slow` skips it.
#include <cmath>

#include <gtest/gtest.h>

#include "core/fit.hpp"
#include "data/datasets.hpp"
#include "report/sweep.hpp"

namespace {

namespace core = srm::core;

TEST(AdaptiveKernelSlow, PoissonModel2MatchesExactResidualPosterior) {
  constexpr double kExactMean = 101.2;
  constexpr double kExactSd = 54.05;
  const auto options = srm::report::paper_sweep_options();
  core::FitRequest request;
  request.prior = core::PriorKind::kPoisson;
  request.model = core::DetectionModelKind::kLogLogistic;
  request.config = options.base_config;
  request.gibbs = options.gibbs;
  request.gibbs.burn_in = 500;
  request.gibbs.iterations = 50000;
  request.observation_day = 96;
  const auto result = core::fit_cell(srm::data::sys1_grouped(), request);

  double residual_ess = 0.0;
  for (const auto& diag : result.diagnostics) {
    if (diag.name == "residual") residual_ess = diag.ess;
  }
  ASSERT_GT(residual_ess, 0.0);
  const auto& summary = result.posterior.summary;
  const double mcse = summary.sd / std::sqrt(residual_ess);
  EXPECT_NEAR(summary.mean, kExactMean, 5.0 * mcse)
      << "sd " << summary.sd << ", ESS " << residual_ess;
  EXPECT_NEAR(summary.sd, kExactSd, 2.5);
}

}  // namespace
