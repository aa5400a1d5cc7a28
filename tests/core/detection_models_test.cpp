// Tests for the five bug-detection-probability models (Eqs 3-7).
#include "core/detection_models.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

namespace core = srm::core;
using core::DetectionModelKind;

TEST(DetectionModels, FactoryAndNames) {
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kConstant)->name(),
            "model0");
  EXPECT_EQ(
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier)->name(),
      "model1");
  EXPECT_EQ(
      core::make_detection_model(DetectionModelKind::kLogLogistic)->name(),
      "model2");
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kPareto)->name(),
            "model3");
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kWeibull)->name(),
            "model4");
  EXPECT_EQ(core::to_string(DetectionModelKind::kPareto), "model3");
  EXPECT_EQ(core::all_detection_model_kinds().size(), 5u);
}

TEST(DetectionModels, ParameterCounts) {
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kConstant)
                ->parameter_count(),
            1u);
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kPadgettSpurrier)
                ->parameter_count(),
            2u);
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kLogLogistic)
                ->parameter_count(),
            2u);
  EXPECT_EQ(
      core::make_detection_model(DetectionModelKind::kPareto)
          ->parameter_count(),
      1u);
  EXPECT_EQ(core::make_detection_model(DetectionModelKind::kWeibull)
                ->parameter_count(),
            2u);
}

TEST(Model0, ConstantProbability) {
  const auto m = core::make_detection_model(DetectionModelKind::kConstant);
  const std::vector<double> zeta{0.37};
  for (std::size_t day = 1; day <= 50; day += 7) {
    EXPECT_DOUBLE_EQ(m->probability(day, zeta), 0.37);
  }
}

TEST(Model1, HandComputedValues) {
  // p_i = 1 - mu / (theta i + 1), Eq (4).
  const auto m =
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.8, 0.5};
  EXPECT_NEAR(m->probability(1, zeta), 1.0 - 0.8 / 1.5, 1e-15);
  EXPECT_NEAR(m->probability(4, zeta), 1.0 - 0.8 / 3.0, 1e-15);
}

TEST(Model1, IncreasingInDay) {
  const auto m =
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.9, 0.2};
  double previous = 0.0;
  for (std::size_t day = 1; day <= 100; ++day) {
    const double p = m->probability(day, zeta);
    EXPECT_GT(p, previous);
    previous = p;
  }
  // Limit is 1 as i -> inf.
  EXPECT_GT(m->probability(100000, zeta), 0.999);
}

TEST(Model2, HandComputedValues) {
  // p_i = (1 - mu) / (mu^{ln i - gamma + 1} + 1), Eq (5).
  const auto m = core::make_detection_model(DetectionModelKind::kLogLogistic);
  const std::vector<double> zeta{0.5, 1.0};
  const double expected1 = 0.5 / (std::pow(0.5, std::log(1.0)) + 1.0);
  EXPECT_NEAR(m->probability(1, zeta), expected1, 1e-15);
  const double expected7 =
      0.5 / (std::pow(0.5, std::log(7.0) - 1.0 + 1.0) + 1.0);
  EXPECT_NEAR(m->probability(7, zeta), expected7, 1e-15);
}

TEST(Model2, BoundedByOneMinusMu) {
  const auto m = core::make_detection_model(DetectionModelKind::kLogLogistic);
  const std::vector<double> zeta{0.3, -2.0};
  for (std::size_t day = 1; day <= 200; day += 13) {
    const double p = m->probability(day, zeta);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 0.7);
  }
}

TEST(Model3, HandComputedValues) {
  // p_i = 1 - mu^{ln(i+2)/(i+1)}, Eq (6).
  const auto m = core::make_detection_model(DetectionModelKind::kPareto);
  const std::vector<double> zeta{0.4};
  EXPECT_NEAR(m->probability(1, zeta),
              1.0 - std::pow(0.4, std::log(3.0) / 2.0), 1e-15);
  EXPECT_NEAR(m->probability(10, zeta),
              1.0 - std::pow(0.4, std::log(12.0) / 11.0), 1e-15);
}

TEST(Model3, DecaysTowardZero) {
  // The discrete Pareto hazard vanishes as i grows — the structural reason
  // model3 predicts enormous residual counts in the paper.
  const auto m = core::make_detection_model(DetectionModelKind::kPareto);
  const std::vector<double> zeta{0.4};
  EXPECT_GT(m->probability(1, zeta), m->probability(100, zeta));
  EXPECT_LT(m->probability(10000, zeta), 0.001);
}

TEST(Model4, HandComputedValues) {
  // p_i = 1 - mu^{i^omega - (i-1)^omega}, Eq (7).
  const auto m = core::make_detection_model(DetectionModelKind::kWeibull);
  const std::vector<double> zeta{0.6, 0.5};
  EXPECT_NEAR(m->probability(1, zeta), 1.0 - 0.6, 1e-15);
  const double expo = std::sqrt(2.0) - 1.0;
  EXPECT_NEAR(m->probability(2, zeta), 1.0 - std::pow(0.6, expo), 1e-15);
}

TEST(Model4, DecreasingHazardForOmegaBelowOne) {
  const auto m = core::make_detection_model(DetectionModelKind::kWeibull);
  const std::vector<double> zeta{0.6, 0.3};
  double previous = 1.0;
  for (std::size_t day = 1; day <= 50; ++day) {
    const double p = m->probability(day, zeta);
    EXPECT_LT(p, previous);
    previous = p;
  }
}

class AllModelsInUnitInterval
    : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(AllModelsInUnitInterval, ProbabilitiesStayInUnitInterval) {
  const auto m = core::make_detection_model(GetParam());
  const core::DetectionModelLimits limits;
  const auto supports = m->parameter_supports(limits);
  // Sweep a grid of interior parameter values.
  for (double t1 = 0.1; t1 < 1.0; t1 += 0.2) {
    for (double t2 = 0.1; t2 < 1.0; t2 += 0.2) {
      std::vector<double> zeta;
      const double ts[] = {t1, t2};
      for (std::size_t j = 0; j < supports.size(); ++j) {
        zeta.push_back(supports[j].lower +
                       ts[j] * (supports[j].upper - supports[j].lower));
      }
      for (std::size_t day = 1; day <= 150; day += 10) {
        const double p = m->probability(day, zeta);
        EXPECT_GE(p, 0.0) << m->name() << " day " << day;
        EXPECT_LE(p, 1.0) << m->name() << " day " << day;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, AllModelsInUnitInterval,
    ::testing::ValuesIn(std::vector<DetectionModelKind>(
        core::all_detection_model_kinds().begin(),
        core::all_detection_model_kinds().end())),
    [](const auto& param_info) { return core::to_string(param_info.param); });

TEST(DetectionModels, SupportsReflectLimits) {
  core::DetectionModelLimits limits;
  limits.theta_max = 42.0;
  limits.gamma_bound = 7.0;
  const auto m1 =
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier);
  const auto s1 = m1->parameter_supports(limits);
  ASSERT_EQ(s1.size(), 2u);
  EXPECT_EQ(s1[1].name, "theta");
  EXPECT_DOUBLE_EQ(s1[1].upper, 42.0);
  const auto m2 = core::make_detection_model(DetectionModelKind::kLogLogistic);
  const auto s2 = m2->parameter_supports(limits);
  EXPECT_DOUBLE_EQ(s2[1].lower, -7.0);
  EXPECT_DOUBLE_EQ(s2[1].upper, 7.0);
}

TEST(DetectionModels, WrongZetaSizeThrows) {
  const auto m = core::make_detection_model(DetectionModelKind::kConstant);
  const std::vector<double> two{0.5, 0.5};
  EXPECT_THROW((void)m->probability(1, two), srm::InvalidArgument);
}

TEST(DetectionModels, ProbabilitiesVectorMatchesScalar) {
  const auto m =
      core::make_detection_model(DetectionModelKind::kPadgettSpurrier);
  const std::vector<double> zeta{0.7, 0.4};
  const auto probabilities = m->probabilities(20, zeta);
  ASSERT_EQ(probabilities.size(), 20u);
  for (std::size_t day = 1; day <= 20; ++day) {
    EXPECT_DOUBLE_EQ(probabilities[day - 1], m->probability(day, zeta));
  }
}

}  // namespace
