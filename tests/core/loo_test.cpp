// Tests for PSIS-LOO and its agreement with WAIC.
#include "core/loo.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "core/streaming.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

BugCountData data() { return BugCountData("t", {3, 2, 2, 1, 2, 0, 1, 1}); }

struct Scores {
  core::WaicResult waic;
  core::LooResult loo;
};

// Samples `model` with a matrix-keeping scorer attached.
Scores fit(const core::BayesianSrm& model) {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 300;
  gibbs.iterations = 2000;
  gibbs.seed = 99;
  core::StreamingScorer scorer(model, gibbs.chain_count, gibbs.iterations,
                               /*keep_matrix=*/true);
  const std::array<srm::mcmc::PosteriorAccumulator*, 1> sinks{&scorer};
  srm::mcmc::run_gibbs(model, gibbs, sinks);
  return {scorer.waic(),
          core::compute_psis_loo_from_matrix(scorer.log_likelihood_matrix())};
}

TEST(PsisLoo, AgreesWithWaicOnWellBehavedFit) {
  // Watanabe: WAIC and LOO estimate the same generalization loss; on a
  // well-behaved posterior looic and the (deviance-scale) WAIC agree to
  // within a few units.
  const core::BayesianSrm model(core::PriorKind::kPoisson,
                                core::DetectionModelKind::kConstant, data());
  const auto [waic, loo] = fit(model);
  EXPECT_NEAR(loo.looic, waic.waic, 0.1 * waic.waic + 3.0);
}

TEST(PsisLoo, PointwiseSumsToTotal) {
  const core::BayesianSrm model(core::PriorKind::kPoisson,
                                core::DetectionModelKind::kConstant, data());
  const auto loo = fit(model).loo;
  ASSERT_EQ(loo.pointwise.size(), data().days());
  double sum = 0.0;
  for (const auto& point : loo.pointwise) sum += point.elpd;
  EXPECT_NEAR(sum, loo.elpd_loo, 1e-10);
  EXPECT_NEAR(loo.looic, -2.0 * loo.elpd_loo, 1e-10);
}

TEST(PsisLoo, ParetoKMostlyBelowThreshold) {
  // A small conjugate-ish model with thousands of draws must produce
  // reliable importance estimates (k-hat below 0.7) nearly everywhere.
  const core::BayesianSrm model(core::PriorKind::kPoisson,
                                core::DetectionModelKind::kConstant, data());
  const auto loo = fit(model).loo;
  EXPECT_LE(loo.high_k_count, 1u);
}

TEST(PsisLoo, RanksModelsLikeWaic) {
  const auto d = data();
  const core::BayesianSrm good(core::PriorKind::kPoisson,
                               core::DetectionModelKind::kConstant, d);
  const core::BayesianSrm bad(core::PriorKind::kPoisson,
                              core::DetectionModelKind::kPareto, d);
  const auto scores_good = fit(good);
  const auto scores_bad = fit(bad);
  const double waic_margin = scores_bad.waic.waic - scores_good.waic.waic;
  const double loo_margin = scores_bad.loo.looic - scores_good.loo.looic;
  // Same sign of the comparison (when the margin is non-trivial).
  if (std::abs(waic_margin) > 5.0) {
    EXPECT_GT(loo_margin, 0.0);
  }
}

TEST(PsisLoo, RequiresEnoughDraws) {
  const core::BayesianSrm model(core::PriorKind::kPoisson,
                                core::DetectionModelKind::kConstant, data());
  core::StreamingScorer tiny(model, 1, 1, /*keep_matrix=*/true);
  const auto workspace = model.make_workspace();
  tiny.accumulate(0, std::vector<double>{1.0, 5.0, 0.3}, workspace.get());
  EXPECT_THROW(core::compute_psis_loo_from_matrix(tiny.log_likelihood_matrix()),
               srm::InvalidArgument);
}

TEST(ParetoSmoothing, PreservesOrderAndCapsAtMax) {
  std::vector<double> log_w;
  for (int i = 0; i < 200; ++i) {
    log_w.push_back(0.01 * static_cast<double>(i));
  }
  const double max_before =
      *std::max_element(log_w.begin(), log_w.end());
  const double k = core::pareto_smooth_log_weights(log_w);
  EXPECT_TRUE(std::isfinite(k));
  for (const double w : log_w) {
    EXPECT_LE(w, max_before + 1e-12);
  }
}

TEST(ParetoSmoothing, TooFewWeightsThrow) {
  std::vector<double> log_w{0.1, 0.2};
  EXPECT_THROW(core::pareto_smooth_log_weights(log_w),
               srm::InvalidArgument);
}

}  // namespace
