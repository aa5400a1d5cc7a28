// Tests for the Nelder-Mead optimizer.
#include "mle/optimize.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

using srm::mle::nelder_mead;
using srm::mle::NelderMeadOptions;

TEST(NelderMead, OneDimensionalQuadratic) {
  const auto objective = [](std::span<const double> x) {
    return -(x[0] - 2.5) * (x[0] - 2.5);
  };
  const std::vector<double> start{0.5};
  const std::vector<double> lower{0.0};
  const std::vector<double> upper{10.0};
  const auto result = nelder_mead(objective, start, lower, upper);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.argmax[0], 2.5, 1e-4);
  EXPECT_NEAR(result.value, 0.0, 1e-8);
}

TEST(NelderMead, TwoDimensionalRosenbrockStyle) {
  // Maximize -((1-x)^2 + 5 (y - x^2)^2): optimum at (1, 1).
  const auto objective = [](std::span<const double> v) {
    const double x = v[0];
    const double y = v[1];
    return -((1.0 - x) * (1.0 - x) + 5.0 * (y - x * x) * (y - x * x));
  };
  const std::vector<double> start{-0.5, 0.5};
  const std::vector<double> lower{-2.0, -2.0};
  const std::vector<double> upper{2.0, 2.0};
  NelderMeadOptions options;
  options.max_iterations = 5000;
  const auto result = nelder_mead(objective, start, lower, upper, options);
  EXPECT_NEAR(result.argmax[0], 1.0, 1e-2);
  EXPECT_NEAR(result.argmax[1], 1.0, 2e-2);
}

TEST(NelderMead, RespectsBoxWhenOptimumOutside) {
  // Unconstrained optimum at x = 5, box caps at 2.
  const auto objective = [](std::span<const double> x) {
    return -(x[0] - 5.0) * (x[0] - 5.0);
  };
  const std::vector<double> start{1.0};
  const std::vector<double> lower{0.0};
  const std::vector<double> upper{2.0};
  const auto result = nelder_mead(objective, start, lower, upper);
  EXPECT_NEAR(result.argmax[0], 2.0, 1e-4);
}

TEST(NelderMead, HandlesNegInfRegions) {
  // Objective is -inf on half the box; the optimizer must stay feasible.
  const auto objective = [](std::span<const double> x) {
    if (x[0] > 1.0) return -std::numeric_limits<double>::infinity();
    return -(x[0] - 0.8) * (x[0] - 0.8);
  };
  const std::vector<double> start{0.3};
  const std::vector<double> lower{0.0};
  const std::vector<double> upper{3.0};
  const auto result = nelder_mead(objective, start, lower, upper);
  EXPECT_NEAR(result.argmax[0], 0.8, 1e-3);
}

TEST(NelderMead, ValidatesArguments) {
  const auto objective = [](std::span<const double>) { return 0.0; };
  const std::vector<double> start{0.5};
  const std::vector<double> lower{0.0};
  const std::vector<double> upper{1.0};
  EXPECT_THROW(nelder_mead(objective, {}, {}, {}), srm::InvalidArgument);
  const std::vector<double> bad_start{2.0};
  EXPECT_THROW(nelder_mead(objective, bad_start, lower, upper),
               srm::InvalidArgument);
  const std::vector<double> bad_upper{-1.0};
  EXPECT_THROW(nelder_mead(objective, start, lower, bad_upper),
               srm::InvalidArgument);
}

}  // namespace
