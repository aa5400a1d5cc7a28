// Correctness tests for the slice sampler: as an MCMC kernel its chain must
// reproduce the moments and tail probabilities of known targets.
#include "mcmc/slice.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "support/error.hpp"

namespace {

using srm::mcmc::SliceOptions;
using srm::mcmc::slice_sample;
using srm::random::Rng;

std::vector<double> run_chain(Rng& rng, double x0,
                              const std::function<double(double)>& log_density,
                              const SliceOptions& options, int n) {
  std::vector<double> chain;
  chain.reserve(static_cast<std::size_t>(n));
  double x = x0;
  for (int i = 0; i < n; ++i) {
    x = slice_sample(rng, x, log_density, options);
    chain.push_back(x);
  }
  return chain;
}

TEST(SliceSampler, StandardNormalMoments) {
  Rng rng(1);
  SliceOptions options;
  options.lower = -100.0;
  options.upper = 100.0;
  const auto chain = run_chain(
      rng, 0.5, [](double x) { return -0.5 * x * x; }, options, 60000);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : chain) {
    sum += x;
    sum_sq += x * x;
  }
  const double n_samples = static_cast<double>(chain.size());
  EXPECT_NEAR(sum / n_samples, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n_samples, 1.0, 0.05);
}

TEST(SliceSampler, BetaTargetMomentsAndSupport) {
  Rng rng(2);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  options.initial_width = 0.3;
  // Beta(2, 5): mean a/(a+b) = 2/7, variance ab/((a+b)^2 (a+b+1)) = 10/392.
  const double target_mean = 2.0 / 7.0;
  const double target_variance = 10.0 / 392.0;
  const auto chain = run_chain(
      rng, 0.3, [](double x) { return std::log(x) + 4.0 * std::log1p(-x); },
      options, 60000);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : chain) {
    ASSERT_GT(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / static_cast<double>(chain.size());
  EXPECT_NEAR(mean, target_mean, 0.01);
  EXPECT_NEAR(sum_sq / static_cast<double>(chain.size()) - mean * mean,
              target_variance, 0.15 * target_variance);
}

TEST(SliceSampler, BimodalTargetVisitsBothModes) {
  Rng rng(3);
  SliceOptions options;
  options.lower = -20.0;
  options.upper = 20.0;
  options.initial_width = 2.0;
  // Mixture of N(-4, 1) and N(+4, 1).
  const auto log_density = [](double x) {
    const double a = -0.5 * (x + 4.0) * (x + 4.0);
    const double b = -0.5 * (x - 4.0) * (x - 4.0);
    const double m = std::max(a, b);
    return m + std::log(std::exp(a - m) + std::exp(b - m));
  };
  const auto chain = run_chain(rng, -4.0, log_density, options, 40000);
  int negative = 0;
  int positive = 0;
  for (const double x : chain) {
    if (x < -1.0) ++negative;
    if (x > 1.0) ++positive;
  }
  // Both modes must receive roughly half of the mass.
  EXPECT_GT(negative, 10000);
  EXPECT_GT(positive, 10000);
}

TEST(SliceSampler, TruncatedExponentialRespectsBounds) {
  Rng rng(4);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 2.0;
  options.initial_width = 0.5;
  const auto chain = run_chain(
      rng, 1.0, [](double x) { return -3.0 * x; }, options, 30000);
  double sum = 0.0;
  for (const double x : chain) {
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 2.0);
    sum += x;
  }
  // E[X] for Exp(3) truncated to [0,2]: 1/3 - 2 e^{-6}/(1-e^{-6}).
  const double expected =
      1.0 / 3.0 - 2.0 * std::exp(-6.0) / (1.0 - std::exp(-6.0));
  EXPECT_NEAR(sum / static_cast<double>(chain.size()), expected, 0.01);
}

TEST(SliceSampler, SpikeDensityDoesNotHang) {
  // A density that is -inf almost everywhere except a narrow spike around
  // the current point: the shrinkage loop must terminate.
  Rng rng(5);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  const auto log_density = [](double x) {
    return (x > 0.49999 && x < 0.50001) ? 0.0 : -1e9;
  };
  const double x = slice_sample(rng, 0.5, log_density, options);
  EXPECT_GT(x, 0.49);
  EXPECT_LT(x, 0.51);
}

TEST(SliceSampler, NeverEvaluatesDensityAtClampedBounds) {
  // The step-out loops must not evaluate the density at an endpoint that is
  // already clamped to a support bound: the bound terminates stepping-out
  // regardless of the density value, so the evaluation would be wasted (and
  // bounded conditionals typically return -inf there anyway).
  Rng rng(7);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  // Width larger than the support: the initial bracket is always clamped to
  // [0, 1] exactly, so a single bound evaluation would be caught below.
  options.initial_width = 5.0;
  int bound_evaluations = 0;
  const auto log_density = [&](double x) {
    if (x == options.lower || x == options.upper) ++bound_evaluations;
    return -0.1 * x;  // finite everywhere inside, gentle slope
  };
  double x = 0.5;
  for (int i = 0; i < 2000; ++i) {
    x = slice_sample(rng, x, log_density, options);
    ASSERT_GT(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
  EXPECT_EQ(bound_evaluations, 0);
}

TEST(SliceSampler, ClampedBracketStillSamplesCorrectly) {
  // Same oversized-width setup: skipping the bound evaluations must not
  // change the invariant distribution. Uniform target on (0, 1): the mean
  // and second moment are 1/2 and 1/3.
  Rng rng(8);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  options.initial_width = 10.0;
  const auto chain =
      run_chain(rng, 0.5, [](double) { return 0.0; }, options, 40000);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : chain) {
    sum += x;
    sum_sq += x * x;
  }
  const double n_samples = static_cast<double>(chain.size());
  EXPECT_NEAR(sum / n_samples, 0.5, 0.01);
  EXPECT_NEAR(sum_sq / n_samples, 1.0 / 3.0, 0.01);
}

TEST(SliceSampler, KnownDensityFormDrawsTheSameSequence) {
  // From the same RNG stream the known-density form must draw exactly what
  // the 4-argument form draws, without ever evaluating at x0, and report
  // the density at the point it returns.
  const auto log_density = [](double x) {
    return std::log(x) * 1.5 + std::log1p(-x) * 4.0;  // Beta(2.5, 5) kernel
  };
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  options.initial_width = 0.2;
  Rng rng_plain(11);
  Rng rng_known(11);
  double x_plain = 0.3;
  double x_known = 0.3;
  double density_known = log_density(x_known);
  int evaluations_at_x0 = 0;
  for (int i = 0; i < 5000; ++i) {
    x_plain = slice_sample(rng_plain, x_plain, log_density, options);
    const double x0 = x_known;
    const auto counted = [&](double x) {
      if (x == x0) ++evaluations_at_x0;
      return log_density(x);
    };
    const auto draw =
        slice_sample(rng_known, x_known, density_known, counted, options);
    ASSERT_EQ(draw.x, x_plain) << "transition " << i;
    ASSERT_EQ(draw.log_density, log_density(draw.x)) << "transition " << i;
    x_known = draw.x;
    density_known = draw.log_density;
  }
  EXPECT_EQ(evaluations_at_x0, 0);
  EXPECT_EQ(rng_plain.uniform(), rng_known.uniform());
}

TEST(SliceSampler, KnownDensityFormReportsX0WhenTheBracketCollapses) {
  // With one shrink step and a density below every slice level away from
  // x0, the transition keeps x0 and reports the density it was given.
  Rng rng(12);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  options.max_shrink = 1;
  const auto spike = [](double) { return -1e9; };
  const auto draw = slice_sample(rng, 0.5, -0.25, spike, options);
  EXPECT_EQ(draw.x, 0.5);
  EXPECT_EQ(draw.log_density, -0.25);
  EXPECT_THROW(
      (void)slice_sample(rng, 0.5,
                         -std::numeric_limits<double>::infinity(), spike,
                         options),
      srm::InvalidArgument);
}

TEST(SliceSampler, InvalidArgumentsThrow) {
  Rng rng(6);
  SliceOptions options;
  options.lower = 0.0;
  options.upper = 1.0;
  const auto flat = [](double) { return 0.0; };
  options.initial_width = -1.0;
  EXPECT_THROW(slice_sample(rng, 0.5, flat, options), srm::InvalidArgument);
  options.initial_width = 1.0;
  EXPECT_THROW(slice_sample(rng, 2.0, flat, options), srm::InvalidArgument);
  const auto neg_inf_everywhere = [](double) {
    return -std::numeric_limits<double>::infinity();
  };
  EXPECT_THROW(slice_sample(rng, 0.5, neg_inf_everywhere, options),
               srm::InvalidArgument);
}

}  // namespace
