// Goodness-of-fit tests for the variate samplers: analytic moments within
// Monte-Carlo error bands, plus chi-square tests for the discrete samplers
// against their exact pmfs. All seeds fixed — these are deterministic.
#include "random/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "stats/poisson.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace {

using srm::random::Rng;

struct Moments {
  double mean = 0.0;
  double variance = 0.0;
};

template <typename Draw>
Moments sample_moments(Rng& rng, int n, Draw&& draw) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(draw(rng));
    sum += x;
    sum_sq += x * x;
  }
  Moments m;
  m.mean = sum / n;
  m.variance = sum_sq / n - m.mean * m.mean;
  return m;
}

TEST(NormalSampler, MomentsAndTails) {
  Rng rng(11);
  const int n = 200000;
  int beyond_2sigma = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  double sum_cu = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = srm::random::sample_normal(rng);
    sum += x;
    sum_sq += x * x;
    sum_cu += x * x * x;
    if (std::abs(x) > 2.0) ++beyond_2sigma;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cu / n, 0.0, 0.05);  // skewness
  EXPECT_NEAR(static_cast<double>(beyond_2sigma) / n, 0.0455, 0.003);
}

TEST(NormalSampler, LocationScale) {
  Rng rng(12);
  const auto m = sample_moments(rng, 100000, [](Rng& r) {
    return srm::random::sample_normal(r, 10.0, 3.0);
  });
  EXPECT_NEAR(m.mean, 10.0, 0.05);
  EXPECT_NEAR(m.variance, 9.0, 0.2);
}

TEST(NormalSampler, RejectsNonPositiveSd) {
  Rng rng(13);
  EXPECT_THROW(srm::random::sample_normal(rng, 0.0, 0.0),
               srm::InvalidArgument);
}

TEST(GammaSampler, MomentsAcrossShapes) {
  for (const double shape : {0.3, 0.9, 1.0, 2.5, 10.0, 150.0}) {
    Rng rng(static_cast<std::uint64_t>(shape * 1000) + 31);
    const double rate = 2.0;
    const auto m = sample_moments(rng, 150000, [&](Rng& r) {
      return srm::random::sample_gamma(r, shape, rate);
    });
    const double true_mean = shape / rate;
    const double true_var = shape / (rate * rate);
    EXPECT_NEAR(m.mean, true_mean, 5.0 * std::sqrt(true_var / 150000.0) + 1e-3)
        << "shape=" << shape;
    EXPECT_NEAR(m.variance, true_var, 0.06 * true_var + 1e-3)
        << "shape=" << shape;
  }
}

TEST(GammaSampler, AlwaysPositive) {
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_GT(srm::random::sample_gamma(rng, 0.1, 1.0), 0.0);
  }
}

TEST(BetaSampler, MomentsAcrossParameters) {
  struct Case {
    double a, b;
  };
  for (const auto& c : {Case{2.0, 3.0}, Case{0.5, 0.5}, Case{137.0, 1.0},
                        Case{1.0, 40.0}}) {
    Rng rng(static_cast<std::uint64_t>(c.a * 100 + c.b) + 51);
    const auto m = sample_moments(rng, 100000, [&](Rng& r) {
      return srm::random::sample_beta(r, c.a, c.b);
    });
    const double s = c.a + c.b;
    const double true_mean = c.a / s;
    const double true_var = c.a * c.b / (s * s * (s + 1.0));
    EXPECT_NEAR(m.mean, true_mean, 0.005) << c.a << "," << c.b;
    EXPECT_NEAR(m.variance, true_var, 0.08 * true_var + 5e-5)
        << c.a << "," << c.b;
  }
}

TEST(PoissonSampler, MomentsSmallAndLargeMean) {
  for (const double mean : {0.2, 3.0, 29.0, 31.0, 150.0, 2500.0}) {
    Rng rng(static_cast<std::uint64_t>(mean * 10) + 61);
    const auto m = sample_moments(rng, 100000, [&](Rng& r) {
      return srm::random::sample_poisson(r, mean);
    });
    EXPECT_NEAR(m.mean, mean, 5.0 * std::sqrt(mean / 100000.0) + 0.01)
        << "mean=" << mean;
    EXPECT_NEAR(m.variance, mean, 0.06 * mean + 0.01) << "mean=" << mean;
  }
}

TEST(PoissonSampler, ChiSquareAgainstExactPmf) {
  // Both regimes: inversion (mean 8) and PTRS (mean 60).
  for (const double mean : {8.0, 60.0}) {
    Rng rng(71);
    const int n = 200000;
    const srm::stats::Poisson dist(mean);
    const auto lo = static_cast<std::int64_t>(
        std::max(0.0, mean - 5.0 * std::sqrt(mean)));
    const auto hi =
        static_cast<std::int64_t>(mean + 5.0 * std::sqrt(mean));
    std::vector<int> observed(static_cast<std::size_t>(hi - lo + 3), 0);
    for (int i = 0; i < n; ++i) {
      auto k = srm::random::sample_poisson(rng, mean);
      k = std::clamp(k, lo - 1, hi + 1);
      ++observed[static_cast<std::size_t>(k - (lo - 1))];
    }
    double chi_sq = 0.0;
    int dof = 0;
    for (std::int64_t k = lo; k <= hi; ++k) {
      const double expected = dist.pmf(k) * n;
      if (expected < 10.0) continue;
      const double o = observed[static_cast<std::size_t>(k - (lo - 1))];
      chi_sq += (o - expected) * (o - expected) / expected;
      ++dof;
    }
    // 99.9% chi-square critical value is ~ dof + 3.1 sqrt(2 dof) + 10.
    EXPECT_LT(chi_sq, dof + 4.0 * std::sqrt(2.0 * dof) + 12.0)
        << "mean=" << mean << " dof=" << dof;
  }
}

TEST(PoissonSampler, ZeroMeanIsZero) {
  Rng rng(81);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(srm::random::sample_poisson(rng, 0.0), 0);
  }
}

TEST(BinomialSampler, MomentsAcrossRegimes) {
  struct Case {
    std::int64_t n;
    double p;
  };
  for (const auto& c : {Case{10, 0.3}, Case{1000, 0.004}, Case{500, 0.4},
                        Case{500, 0.93}, Case{1, 0.5}}) {
    Rng rng(static_cast<std::uint64_t>(c.n) + 91);
    const auto m = sample_moments(rng, 100000, [&](Rng& r) {
      return srm::random::sample_binomial(r, c.n, c.p);
    });
    const double true_mean = static_cast<double>(c.n) * c.p;
    const double true_var = static_cast<double>(c.n) * c.p * (1.0 - c.p);
    EXPECT_NEAR(m.mean, true_mean,
                5.0 * std::sqrt(true_var / 100000.0) + 0.01)
        << c.n << "," << c.p;
    EXPECT_NEAR(m.variance, true_var, 0.06 * true_var + 0.01)
        << c.n << "," << c.p;
  }
}

TEST(BinomialSampler, EdgeCases) {
  Rng rng(101);
  EXPECT_EQ(srm::random::sample_binomial(rng, 0, 0.5), 0);
  EXPECT_EQ(srm::random::sample_binomial(rng, 100, 0.0), 0);
  EXPECT_EQ(srm::random::sample_binomial(rng, 100, 1.0), 100);
  for (int i = 0; i < 10000; ++i) {
    const auto k = srm::random::sample_binomial(rng, 7, 0.6);
    EXPECT_GE(k, 0);
    EXPECT_LE(k, 7);
  }
}

TEST(NegativeBinomialSampler, MomentsRealShape) {
  struct Case {
    double alpha, beta;
  };
  for (const auto& c : {Case{2.5, 0.4}, Case{137.0, 0.8}, Case{0.7, 0.2}}) {
    Rng rng(static_cast<std::uint64_t>(c.alpha * 10) + 111);
    const auto m = sample_moments(rng, 150000, [&](Rng& r) {
      return srm::random::sample_negative_binomial(r, c.alpha, c.beta);
    });
    const double true_mean = c.alpha * (1.0 - c.beta) / c.beta;
    const double true_var = true_mean / c.beta;
    EXPECT_NEAR(m.mean, true_mean,
                5.0 * std::sqrt(true_var / 150000.0) + 0.01)
        << c.alpha << "," << c.beta;
    EXPECT_NEAR(m.variance, true_var, 0.08 * true_var + 0.05)
        << c.alpha << "," << c.beta;
  }
}

TEST(TruncatedGammaSampler, RespectsUpperBound) {
  Rng rng(121);
  for (int i = 0; i < 20000; ++i) {
    const double x =
        srm::random::sample_truncated_gamma(rng, 137.0, 1.0, 100.0);
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(TruncatedGammaSampler, MatchesUntruncatedWhenBoundIsLoose) {
  // With upper >> mean the truncation is inactive.
  Rng rng(131);
  const auto m = sample_moments(rng, 100000, [](Rng& r) {
    return srm::random::sample_truncated_gamma(r, 5.0, 2.0, 1000.0);
  });
  EXPECT_NEAR(m.mean, 2.5, 0.02);
  EXPECT_NEAR(m.variance, 1.25, 0.05);
}

TEST(TruncatedGammaSampler, HeavyTruncationMean) {
  // Gamma(137, 1) has mean 137; truncated at 100 the mass piles up near
  // the bound. Compare against the closed-form truncated mean.
  Rng rng(141);
  const double cap = srm::math::regularized_gamma_p(137.0, 100.0);
  const double numerator = srm::math::regularized_gamma_p(138.0, 100.0);
  const double true_mean = 137.0 * numerator / cap;
  const auto m = sample_moments(rng, 100000, [](Rng& r) {
    return srm::random::sample_truncated_gamma(r, 137.0, 1.0, 100.0);
  });
  EXPECT_NEAR(m.mean, true_mean, 0.05);
}

/// rate * upper at which log P(shape, .) equals `log_cap`, by bisection.
double bound_for_log_cap(double shape, double log_cap) {
  double lo = 0.0;
  double hi = shape;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (srm::math::log_regularized_gamma_p(shape, mid) < log_cap) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

TEST(TruncatedGammaSampler, UnderflowingCapsInvertInTheLogDomain) {
  // Caps P(shape, rate * upper) from subnormal down to exactly 0: every
  // draw lies in (0, upper], and P(shape, rate * x) / cap, formed in the
  // log domain, is uniform (Kolmogorov-Smirnov distance within the 1 %
  // critical value 1.63 / sqrt(n)).
  struct Case {
    double shape;
    double x_upper;  // rate * upper
  };
  std::vector<Case> cases = {
      {1000.0, 0.22 * 1000.0},  // P = 2.4e-321
      {4000.0, 0.51 * 4000.0},  // P = 4.1e-321
      {12000.0, 0.69 * 12000.0},  // P = 6.8e-321
  };
  for (const double shape : {300.0, 1000.0, 4000.0, 1e5}) {
    for (const double log_cap : {std::log(1e-310), std::log(1e-320), -800.0,
                                 -5000.0}) {
      cases.push_back({shape, bound_for_log_cap(shape, log_cap)});
    }
  }
  constexpr int kDraws = 400;
  const double rate = 0.5;
  Rng rng(2026);
  for (const auto& c : cases) {
    const double cap = srm::math::regularized_gamma_p(c.shape, c.x_upper);
    ASSERT_LT(cap, std::numeric_limits<double>::min())
        << "shape=" << c.shape << " x_upper=" << c.x_upper;
    const double log_cap =
        srm::math::log_regularized_gamma_p(c.shape, c.x_upper);
    const double upper = c.x_upper / rate;
    std::vector<double> u;
    for (int i = 0; i < kDraws; ++i) {
      double x = 0.0;
      ASSERT_NO_THROW(x = srm::random::sample_truncated_gamma(rng, c.shape,
                                                              rate, upper))
          << "shape=" << c.shape << " x_upper=" << c.x_upper;
      ASSERT_GT(x, 0.0);
      ASSERT_LE(x, upper);
      u.push_back(std::exp(
          srm::math::log_regularized_gamma_p(c.shape, rate * x) - log_cap));
    }
    std::sort(u.begin(), u.end());
    double distance = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double value = u[static_cast<std::size_t>(i)];
      distance = std::max({distance, (i + 1.0) / kDraws - value,
                           value - static_cast<double>(i) / kDraws});
    }
    EXPECT_LT(distance, 1.63 / std::sqrt(static_cast<double>(kDraws)))
        << "shape=" << c.shape << " log cap=" << log_cap;
  }
}

}  // namespace
