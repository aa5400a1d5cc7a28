// Integration test: the qualitative findings of the paper's Section 5 must
// hold on the reconstructed SYS1 data even with a small MCMC budget —
// these are the claims EXPERIMENTS.md reports in detail:
//   (i)  model1 (Padgett-Spurrier) fits better (smaller WAIC) than model3
//        (discrete Pareto), the paper's best-vs-worst gap;
//   (ii) model1's residual posterior is far smaller and tighter than
//        model3's;
//   (iii) under virtual testing the model1 posterior decays toward zero;
//   (iv) the Poisson prior's posterior sd does not exceed the negative
//        binomial prior's (the paper's headline conclusion).
// It also holds the negative binomial cells to a mixing floor at the
// paper's own MCMC budget.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "data/datasets.hpp"
#include "report/sweep.hpp"

namespace {

namespace core = srm::core;

core::ExperimentSpec spec_for(core::PriorKind prior,
                              core::DetectionModelKind model) {
  core::ExperimentSpec spec;
  spec.prior = prior;
  spec.model = model;
  spec.eventual_total = srm::data::kSys1TotalBugs;
  spec.gibbs.chain_count = 2;
  spec.gibbs.burn_in = 300;
  spec.gibbs.iterations = 1500;
  spec.gibbs.seed = 2718;
  return spec;
}

TEST(PaperShape, Model1BeatsModel3InWaicAtFullData) {
  const auto base = srm::data::sys1_grouped();
  for (const auto prior :
       {core::PriorKind::kPoisson, core::PriorKind::kNegativeBinomial}) {
    const auto m1 = core::run_observation(
        base, spec_for(prior, core::DetectionModelKind::kPadgettSpurrier),
        96);
    const auto m3 = core::run_observation(
        base, spec_for(prior, core::DetectionModelKind::kPareto), 96);
    EXPECT_LT(m1.waic.waic, m3.waic.waic) << core::to_string(prior);
  }
}

TEST(PaperShape, Model1PosteriorSmallerAndTighterThanModel3) {
  const auto base = srm::data::sys1_grouped();
  const auto m1 = core::run_observation(
      base,
      spec_for(core::PriorKind::kPoisson,
               core::DetectionModelKind::kPadgettSpurrier),
      116);
  const auto m3 = core::run_observation(
      base,
      spec_for(core::PriorKind::kPoisson, core::DetectionModelKind::kPareto),
      116);
  EXPECT_LT(m1.posterior.summary.mean, m3.posterior.summary.mean);
  EXPECT_LT(m1.posterior.summary.sd, m3.posterior.summary.sd);
}

TEST(PaperShape, VirtualTestingDrivesModel1ResidualTowardZero) {
  const auto base = srm::data::sys1_grouped();
  auto spec = spec_for(core::PriorKind::kPoisson,
                       core::DetectionModelKind::kPadgettSpurrier);
  spec.observation_days = {96, 116, 146};
  const auto results = core::run_experiment(base, spec);
  EXPECT_GT(results[0].posterior.summary.mean,
            results[1].posterior.summary.mean);
  EXPECT_GT(results[1].posterior.summary.mean,
            results[2].posterior.summary.mean);
  // By 146 days the residual estimate is near zero (paper: 0.679).
  EXPECT_LT(results[2].posterior.summary.mean, 10.0);
}

TEST(PaperShape, PoissonPriorNoMoreVariableThanNegBin) {
  const auto base = srm::data::sys1_grouped();
  for (const std::size_t day : {std::size_t{116}, std::size_t{146}}) {
    const auto poisson = core::run_observation(
        base,
        spec_for(core::PriorKind::kPoisson,
                 core::DetectionModelKind::kPadgettSpurrier),
        day);
    const auto negbin = core::run_observation(
        base,
        spec_for(core::PriorKind::kNegativeBinomial,
                 core::DetectionModelKind::kPadgettSpurrier),
        day);
    // Allow a small MC slack: the claim is "not materially larger".
    EXPECT_LE(poisson.posterior.summary.sd,
              negbin.posterior.summary.sd * 1.25)
        << "day " << day;
  }
}

TEST(PaperShape, PriorsGiveSimilarGoodnessOfFit) {
  // Okamura-Dohi (2008), restated in the paper's introduction: the
  // NHMPP-based SRMs' goodness of fit is essentially the same as the
  // NHPP-based SRMs'. On the same detection model the two priors' WAICs
  // must be close (within ~2% here), even though their predictive
  // dispersions differ.
  const auto base = srm::data::sys1_grouped();
  for (const auto model : {core::DetectionModelKind::kConstant,
                           core::DetectionModelKind::kPadgettSpurrier}) {
    const auto poisson =
        core::run_observation(base, spec_for(core::PriorKind::kPoisson,
                                             model),
                              96);
    const auto negbin = core::run_observation(
        base, spec_for(core::PriorKind::kNegativeBinomial, model), 96);
    EXPECT_NEAR(poisson.waic.waic, negbin.waic.waic,
                0.02 * poisson.waic.waic)
        << core::to_string(model);
  }
}

TEST(PaperShape, NegBinCellsMixAtPaperBudget) {
  // The NB prior's residual, beta0 and zeta move along a ridge the data
  // leave loose; the collapsed scan's thinned reparametrisation has to
  // cross it within the paper's budget of 2 x (500 + 2500) draws. These
  // are the three cells that mixed worst before it.
  const auto base = srm::data::sys1_grouped();
  const auto paper = srm::report::paper_sweep_options();
  for (const auto model : {core::DetectionModelKind::kConstant,
                           core::DetectionModelKind::kPareto,
                           core::DetectionModelKind::kWeibull}) {
    core::ExperimentSpec spec;
    spec.prior = core::PriorKind::kNegativeBinomial;
    spec.model = model;
    spec.config = paper.base_config;
    spec.gibbs = paper.gibbs;
    spec.eventual_total = paper.eventual_total;
    ASSERT_EQ(spec.gibbs.chain_count, 2u);
    ASSERT_EQ(spec.gibbs.burn_in, 500u);
    ASSERT_EQ(spec.gibbs.iterations, 2500u);
    ASSERT_EQ(spec.gibbs.seed, 20240624u);
    ASSERT_EQ(spec.config.alpha_max, 100.0);
    ASSERT_EQ(spec.config.lambda_max, 2000.0);
    const auto result = core::run_observation(base, spec, 96);
    for (const auto& diag : result.diagnostics) {
      EXPECT_GE(diag.ess, 1000.0) << core::to_string(model) << " " << diag.name;
      EXPECT_LT(diag.psrf, 1.1) << core::to_string(model) << " " << diag.name;
    }
  }
}

TEST(PaperShape, ConvergenceDiagnosticsPassForWinner) {
  const auto base = srm::data::sys1_grouped();
  const auto result = core::run_observation(
      base,
      spec_for(core::PriorKind::kPoisson,
               core::DetectionModelKind::kPadgettSpurrier),
      96);
  for (const auto& diag : result.diagnostics) {
    EXPECT_LT(diag.psrf, 1.1) << diag.name;
    EXPECT_GT(diag.ess, 50.0) << diag.name;
  }
}

}  // namespace
