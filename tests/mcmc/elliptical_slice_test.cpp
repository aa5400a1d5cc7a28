// Tests for the elliptical slice move on its own: as an MCMC kernel it must
// reproduce the moments of a known non-Gaussian target whatever Gaussian
// reference it runs against, and its RNG use must be exactly the documented
// count.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "diagnostics/ess.hpp"
#include "mcmc/slice.hpp"
#include "random/rng.hpp"
#include "random/samplers.hpp"
#include "support/error.hpp"

namespace {

using srm::mcmc::elliptical_slice;
using srm::random::Rng;

// A bimodal, correlated target: x1 ~ (N(-1, 0.6^2) + N(1, 0.6^2)) / 2 and
// x2 | x1 ~ N(x1 / 2, 0.8^2), so both means are 0, Var x1 = 1.36 and
// Var x2 = 1.36 / 4 + 0.64 = 0.98.
constexpr double kVarianceFirst = 1.36;
constexpr double kVarianceSecond = 0.98;

double log_target(std::span<const double> x) {
  const double left = -0.5 * std::pow((x[0] + 1.0) / 0.6, 2);
  const double right = -0.5 * std::pow((x[0] - 1.0) / 0.6, 2);
  const double top = std::max(left, right);
  const double r = (x[1] - 0.5 * x[0]) / 0.8;
  return top + std::log(std::exp(left - top) + std::exp(right - top)) -
         0.5 * r * r;
}

// A reference Gaussian that is off-centre and too narrow for the target
// (sds 0.8 and 0.63 against 1.17 and 0.99), with correlation.
constexpr std::array<double, 2> kMean{0.5, -0.4};
constexpr std::array<double, 4> kFactor{0.8, 0.0, 0.2, 0.6};

double log_reference(std::span<const double> x) {
  const double z0 = (x[0] - kMean[0]) / kFactor[0];
  const double z1 = (x[1] - kMean[1] - kFactor[2] * z0) / kFactor[3];
  return -0.5 * (z0 * z0 + z1 * z1);
}

// The move's log likelihood: the target over the reference.
double log_likelihood(std::span<const double> x) {
  return log_target(x) - log_reference(x);
}

// |estimate - truth| in units of the estimate's Monte Carlo standard error,
// with the error's autocorrelation from the series' own ESS.
double mcse_units(const std::vector<double>& series, double truth) {
  double sum = 0.0;
  for (const double v : series) sum += v;
  const auto n = static_cast<double>(series.size());
  const double estimate = sum / n;
  double squares = 0.0;
  for (const double v : series) squares += (v - estimate) * (v - estimate);
  const double mcse =
      std::sqrt(squares / (n - 1.0) /
                srm::diagnostics::effective_sample_size(series));
  return std::abs(estimate - truth) / mcse;
}

TEST(EllipticalSlice, MatchesMomentsOfANonGaussianTarget) {
  constexpr int kMoves = 200000;
  Rng rng(20100413);
  std::array<double, 2> x{0.0, 0.0};
  std::array<double, 4> scratch{};
  double ll = log_likelihood(x);
  std::vector<double> first(kMoves);
  std::vector<double> second(kMoves);
  std::vector<double> first_sq(kMoves);
  std::vector<double> second_sq(kMoves);
  for (int i = 0; i < kMoves; ++i) {
    ll = elliptical_slice(rng, x, ll, kMean, kFactor, log_likelihood, scratch)
             .log_likelihood;
    ASSERT_EQ(ll, log_likelihood(x)) << "move " << i;
    const auto k = static_cast<std::size_t>(i);
    first[k] = x[0];
    second[k] = x[1];
    first_sq[k] = x[0] * x[0];
    second_sq[k] = x[1] * x[1];
  }
  EXPECT_LT(mcse_units(first, 0.0), 5.0);
  EXPECT_LT(mcse_units(second, 0.0), 5.0);
  EXPECT_LT(mcse_units(first_sq, kVarianceFirst), 5.0);
  EXPECT_LT(mcse_units(second_sq, kVarianceSecond), 5.0);
}

TEST(EllipticalSlice, UsesDNormalsTwoUniformsAndOnePerShrink) {
  // From the same state and stream the move draws the same point; its RNG
  // use is d normals, the level and the first angle, then one uniform per
  // rejected proposal.
  int total_shrinks = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    int evaluations = 0;
    const auto counted = [&](std::span<const double> point) {
      ++evaluations;
      return log_likelihood(point);
    };
    const std::array<double, 2> start{1.5, 2.5};
    std::array<double, 2> x = start;
    std::array<double, 4> scratch{};
    Rng rng(seed);
    const auto draw = elliptical_slice(rng, x, log_likelihood(start), kMean,
                                       kFactor, counted, scratch);
    std::array<double, 2> again = start;
    Rng rng_again(seed);
    const auto repeat = elliptical_slice(rng_again, again, log_likelihood(start),
                                         kMean, kFactor, log_likelihood,
                                         scratch);
    EXPECT_EQ(again, x) << "seed " << seed;
    EXPECT_EQ(repeat.log_likelihood, draw.log_likelihood) << "seed " << seed;
    EXPECT_EQ(repeat.moved, draw.moved) << "seed " << seed;

    const int shrinks = evaluations - (draw.moved ? 1 : 0);
    total_shrinks += shrinks;
    Rng replay(seed);
    for (std::size_t i = 0; i < x.size(); ++i) {
      (void)srm::random::sample_normal(replay);
    }
    for (int i = 0; i < 2 + shrinks; ++i) (void)replay.uniform();
    EXPECT_EQ(replay.next_u64(), rng.next_u64()) << "seed " << seed;
  }
  EXPECT_GT(total_shrinks, 50);  // the shrink path is exercised
}

TEST(EllipticalSlice, KeepsTheStateWhenTheShrinkCapIsHit) {
  // A likelihood below every level away from the current point: after
  // slice_sample's max_shrink rejections the state and its log likelihood
  // are kept.
  Rng rng(3);
  std::array<double, 2> x{0.25, -0.5};
  std::array<double, 4> scratch{};
  int evaluations = 0;
  const auto cliff = [&](std::span<const double>) {
    ++evaluations;
    return -1e9;
  };
  const auto draw =
      elliptical_slice(rng, x, -0.75, kMean, kFactor, cliff, scratch);
  EXPECT_FALSE(draw.moved);
  EXPECT_EQ(draw.log_likelihood, -0.75);
  EXPECT_EQ(x, (std::array<double, 2>{0.25, -0.5}));
  EXPECT_EQ(evaluations, srm::mcmc::SliceOptions{}.max_shrink);
}

TEST(EllipticalSlice, InvalidArgumentsThrow) {
  Rng rng(4);
  std::array<double, 2> x{0.0, 0.0};
  std::array<double, 4> scratch{};
  std::array<double, 3> short_scratch{};
  EXPECT_THROW((void)elliptical_slice(
                   rng, x, -std::numeric_limits<double>::infinity(), kMean,
                   kFactor, log_likelihood, scratch),
               srm::InvalidArgument);
  EXPECT_THROW((void)elliptical_slice(rng, x, 0.0, kMean, kFactor,
                                      log_likelihood, short_scratch),
               srm::InvalidArgument);
}

}  // namespace
