// Tests for the virtual-testing experiment driver (Section 5.1 protocol).
#include "core/experiment.hpp"

#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "core/fit.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

BugCountData base_data() { return BugCountData("t", {3, 2, 1, 0, 4, 2}); }

TEST(DatasetAtObservation, TruncatesWithinRealTesting) {
  const auto observed = core::dataset_at_observation(base_data(), 3);
  EXPECT_EQ(observed.days(), 3u);
  EXPECT_EQ(observed.total(), 6);
}

TEST(DatasetAtObservation, PadsBeyondRealTesting) {
  const auto observed = core::dataset_at_observation(base_data(), 9);
  EXPECT_EQ(observed.days(), 9u);
  EXPECT_EQ(observed.total(), 12);
  EXPECT_EQ(observed.count_on_day(7), 0);
  EXPECT_EQ(observed.count_on_day(9), 0);
}

TEST(DatasetAtObservation, FullLengthIsIdentity) {
  const auto observed = core::dataset_at_observation(base_data(), 6);
  EXPECT_EQ(observed.days(), 6u);
  EXPECT_EQ(observed.total(), 12);
}

TEST(DatasetAtObservation, RejectsZeroDay) {
  EXPECT_THROW(core::dataset_at_observation(base_data(), 0),
               srm::InvalidArgument);
}

core::ExperimentSpec quick_spec() {
  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kPoisson;
  spec.model = core::DetectionModelKind::kConstant;
  spec.eventual_total = 12;
  spec.gibbs.chain_count = 2;
  spec.gibbs.burn_in = 100;
  spec.gibbs.iterations = 400;
  spec.gibbs.seed = 5;
  return spec;
}

TEST(RunObservation, PopulatesAllFields) {
  const auto result = core::run_observation(base_data(), quick_spec(), 3);
  EXPECT_EQ(result.observation_day, 3u);
  EXPECT_EQ(result.detected_so_far, 6);
  EXPECT_EQ(result.actual_residual, 6);
  EXPECT_GT(result.waic.waic, 0.0);
  EXPECT_EQ(result.waic.data_points, 3u);
  EXPECT_GE(result.posterior.summary.mean, 0.0);
  EXPECT_EQ(result.posterior.samples.size(), 800u);
  // One diagnostics row per sampled parameter: residual, lambda0, mu.
  ASSERT_EQ(result.diagnostics.size(), 3u);
  EXPECT_EQ(result.diagnostics[0].name, "residual");
  for (const auto& diag : result.diagnostics) {
    EXPECT_GT(diag.ess, 0.0);
    EXPECT_GE(diag.psrf, 0.0);
  }
}

TEST(RunObservation, ActualResidualUsesEventualTotal) {
  auto spec = quick_spec();
  spec.eventual_total = 20;
  const auto result = core::run_observation(base_data(), spec, 6);
  EXPECT_EQ(result.actual_residual, 8);
}

TEST(RunExperiment, OneResultPerObservationDay) {
  auto spec = quick_spec();
  spec.observation_days = {2, 4, 6, 8};
  const auto results = core::run_experiment(base_data(), spec);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].observation_day, spec.observation_days[i]);
  }
  // WAIC grows with the observation window (more data points).
  EXPECT_LT(results[0].waic.waic, results[3].waic.waic);
}

TEST(RunExperiment, EmptyObservationDaysThrow) {
  auto spec = quick_spec();
  spec.observation_days = {};
  EXPECT_THROW(core::run_experiment(base_data(), spec),
               srm::InvalidArgument);
}

TEST(RunExperiment, ZeroPaddingShrinksResidualPosterior) {
  // With ever more zero-count virtual days, the posterior mean of the
  // residual count must shrink (the paper's Figs 2-3 phenomenon).
  auto spec = quick_spec();
  spec.model = core::DetectionModelKind::kConstant;
  spec.observation_days = {6, 30, 60};
  const auto results = core::run_experiment(base_data(), spec);
  EXPECT_GT(results[0].posterior.summary.mean,
            results[1].posterior.summary.mean);
  EXPECT_GE(results[1].posterior.summary.mean,
            results[2].posterior.summary.mean);
}

TEST(FitCell, HundredThousandBugSeriesFits) {
  // A 1e5-bug total puts the hyperparameter conditionals' incomplete-gamma
  // calls near a ~ 1e5, where the series needs ~2500 terms.
  const BugCountData big("big", {50000, 30000, 20000});
  for (const auto& [prior, model] :
       {std::pair{core::PriorKind::kPoisson,
                  core::DetectionModelKind::kConstant},
        std::pair{core::PriorKind::kSizeBiased,
                  core::DetectionModelKind::kSizeBiasedMultinomial}}) {
    core::FitRequest request;
    request.prior = prior;
    request.model = model;
    request.config.lambda_max = 4e5;
    request.gibbs.chain_count = 2;
    request.gibbs.burn_in = 20;
    request.gibbs.iterations = 40;
    request.gibbs.seed = 7;
    request.observation_day = big.days();
    request.eventual_total = big.total();
    const auto result = core::fit_cell(big, request);
    EXPECT_TRUE(std::isfinite(result.posterior.summary.mean))
        << core::to_string(prior);
    EXPECT_TRUE(std::isfinite(result.waic.waic)) << core::to_string(prior);
  }
}

}  // namespace
