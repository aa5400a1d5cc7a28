// Regression tests for the stable log-survival channel (the model5
// underflow bug class): every detection model's log_survivals_into must
// agree with log1p(-p) where both are accurate, and must stay finite where
// the naive route underflows to p == 1.
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection_models.hpp"
#include "core/likelihood.hpp"
#include "data/bug_count_data.hpp"

namespace {

namespace core = srm::core;
using core::DetectionModelKind;

std::vector<DetectionModelKind> every_kind() {
  std::vector<DetectionModelKind> kinds(
      core::all_detection_model_kinds().begin(),
      core::all_detection_model_kinds().end());
  for (const auto k : core::extended_detection_model_kinds()) {
    kinds.push_back(k);
  }
  return kinds;
}

class LogSurvivalAgreement
    : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(LogSurvivalAgreement, MatchesNaiveFormulaWhereAccurate) {
  const auto model = core::make_detection_model(GetParam());
  const core::DetectionModelLimits limits;
  const auto supports = model->parameter_supports(limits);
  std::vector<double> log_q(60);
  for (double t1 = 0.15; t1 < 1.0; t1 += 0.2) {
    for (double t2 = 0.15; t2 < 1.0; t2 += 0.2) {
      std::vector<double> zeta;
      const double ts[] = {t1, t2};
      for (std::size_t j = 0; j < supports.size(); ++j) {
        zeta.push_back(supports[j].lower +
                       ts[j] * (supports[j].upper - supports[j].lower));
      }
      model->log_survivals_into(log_q.size(), zeta, log_q);
      for (std::size_t day = 1; day <= 60; day += 7) {
        const double p = model->probability(day, zeta);
        if (p > 0.999) continue;  // naive formula starts losing digits
        const double naive = std::log1p(-p);
        EXPECT_NEAR(log_q[day - 1], naive,
                    1e-9 * (1.0 + std::abs(naive)))
            << model->name() << " day " << day;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, LogSurvivalAgreement, ::testing::ValuesIn(every_kind()),
    [](const auto& param_info) { return core::to_string(param_info.param); });

TEST(LogSurvival, StableWhereNaiveUnderflows) {
  // model5 with mu = 0.1 at day 96: q = 0.1^191 ~ 1e-191 underflows the
  // p-representation (p rounds to exactly 1), but log q = 191 log(0.1) is
  // a perfectly finite -439.8.
  const auto model5 =
      core::make_detection_model(DetectionModelKind::kRayleigh);
  const std::vector<double> zeta{0.1};
  EXPECT_EQ(model5->probability(96, zeta), 1.0);  // demonstrates the trap
  std::vector<double> log_q(96);
  model5->log_survivals_into(log_q.size(), zeta, log_q);
  EXPECT_NEAR(log_q.back(), 191.0 * std::log(0.1), 1e-9);
}

TEST(LogSurvival, ZetaKernelStaysFiniteUnderUnderflow) {
  // The day-96 likelihood kernel through the stable channel must be finite
  // (and enormous but negative), not -inf, for model5 at small mu with
  // bugs remaining.
  const auto model5 =
      core::make_detection_model(DetectionModelKind::kRayleigh);
  const std::vector<double> zeta{0.1};
  std::vector<std::int64_t> counts(96, 1);
  const srm::data::BugCountData data("t", std::move(counts));
  const auto p = model5->probabilities(96, zeta);
  std::vector<double> log_q(96);
  model5->log_survivals_into(log_q.size(), zeta, log_q);
  const double kernel =
      core::log_likelihood_zeta_kernel(data, 100, p, log_q);
  EXPECT_TRUE(std::isfinite(kernel));
  EXPECT_LT(kernel, -100.0);
  // The p-only overload hits the underflow and reports -inf — the exact
  // failure the stable channel exists to avoid.
  EXPECT_EQ(core::log_likelihood_zeta_kernel(data, 100, p),
            -std::numeric_limits<double>::infinity());
}

TEST(LogSurvival, CollapsedBaseConsistentBetweenOverloads) {
  const auto model1 =
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.8, 0.3};
  const srm::data::BugCountData data("t", {2, 1, 0, 3});
  const auto p = model1->probabilities(4, zeta);
  std::vector<double> log_q(4);
  model1->log_survivals_into(log_q.size(), zeta, log_q);
  EXPECT_NEAR(core::log_likelihood_collapsed_base(data, p),
              core::log_likelihood_collapsed_base(data, p, log_q), 1e-9);
}

}  // namespace
