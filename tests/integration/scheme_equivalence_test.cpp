// Integration test: the collapsed and vanilla Gibbs blocking schemes target
// the same posterior, so their estimates of the residual bug count must
// agree within Monte-Carlo error. This validates the closed-form
// marginalizations of DESIGN.md against the paper's literal Eqs (14)-(22).
#include <cmath>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"
#include "stats/summary.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

struct SchemeEstimates {
  double mean;
  double sd;
};

SchemeEstimates estimate(core::PriorKind prior,
                         core::DetectionModelKind kind,
                         core::SamplerScheme scheme, std::size_t iterations,
                         std::size_t thin) {
  const BugCountData data("t", {4, 3, 2, 3, 1, 2, 0, 1, 1, 0});
  core::HyperPriorConfig config;
  config.scheme = scheme;
  config.lambda_max = 120.0;
  config.alpha_max = 25.0;
  const core::BayesianSrm model(prior, kind, data, config);
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 1000;
  gibbs.iterations = iterations;
  gibbs.thin = thin;
  gibbs.seed = 31415;
  const auto run = srm::mcmc::run_gibbs(model, gibbs);
  const auto residual = run.pooled("residual");
  return {srm::stats::mean(residual),
          std::sqrt(srm::stats::sample_variance(residual))};
}

class SchemeEquivalence
    : public ::testing::TestWithParam<
          std::tuple<core::PriorKind, core::DetectionModelKind>> {};

TEST_P(SchemeEquivalence, PosteriorMomentsAgree) {
  const auto [prior, kind] = GetParam();
  // The vanilla scheme mixes slowly, so give it thinning; the collapsed
  // scheme gets fewer, nearly independent draws.
  const auto collapsed =
      estimate(prior, kind, core::SamplerScheme::kCollapsed, 6000, 1);
  const auto vanilla =
      estimate(prior, kind, core::SamplerScheme::kVanilla, 6000, 10);
  // Agreement within a generous composite MC band on the mean...
  const double tolerance =
      0.15 * std::max({collapsed.sd, vanilla.sd, 1.0});
  EXPECT_NEAR(collapsed.mean, vanilla.mean, tolerance)
      << "collapsed sd " << collapsed.sd << " vanilla sd " << vanilla.sd;
  // ...and the spreads are the same scale.
  EXPECT_NEAR(collapsed.sd, vanilla.sd,
              0.35 * std::max(collapsed.sd, vanilla.sd) + 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    PriorsAndModels, SchemeEquivalence,
    ::testing::Combine(
        ::testing::Values(core::PriorKind::kPoisson,
                          core::PriorKind::kNegativeBinomial),
        ::testing::Values(core::DetectionModelKind::kConstant,
                          core::DetectionModelKind::kPadgettSpurrier)),
    [](const auto& param_info) {
      return core::to_string(std::get<0>(param_info.param)) + "_" +
             core::to_string(std::get<1>(param_info.param));
    });

}  // namespace
