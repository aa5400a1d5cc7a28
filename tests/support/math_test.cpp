// Unit tests for the special functions: values are checked against
// high-precision references (Mathematica / mpmath, 20 significant digits).
#include "support/math.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace m = srm::math;

TEST(LogFactorial, MatchesDirectComputation) {
  double acc = 0.0;
  for (int n = 1; n <= 300; ++n) {
    acc += std::log(static_cast<double>(n));
    EXPECT_NEAR(m::log_factorial(n), acc, 1e-9 * (1.0 + acc)) << "n=" << n;
  }
}

TEST(LogFactorial, ZeroIsZero) { EXPECT_DOUBLE_EQ(m::log_factorial(0), 0.0); }

TEST(LogFactorial, RejectsNegative) {
  EXPECT_THROW(m::log_factorial(-1), srm::InvalidArgument);
}

TEST(LogFactorial, ExtendedTableMatchesLgammaBitwise) {
  // Entries beyond the original 256-entry running-sum prefix must hold
  // exactly what the lgamma fallback used to return for them — growing the
  // table is a pure speedup, never a value change.
  for (std::int64_t n = 256; n < 4096; n += 37) {
    EXPECT_EQ(m::log_factorial(n), m::lgamma(static_cast<double>(n) + 1.0))
        << "n=" << n;
  }
  EXPECT_EQ(m::log_factorial(4095), m::lgamma(4096.0));
}

TEST(LogFactorial, TableAndFallbackAgreeAtTheSeam) {
  // Relative agreement across the table boundary (the table is the exact
  // lgamma value there, the running sum accumulates rounding ~1e-14).
  for (std::int64_t n = 4090; n <= 4100; ++n) {
    const double table_or_fallback = m::log_factorial(n);
    const double direct = m::lgamma(static_cast<double>(n) + 1.0);
    EXPECT_NEAR(table_or_fallback, direct, 1e-9 * direct) << "n=" << n;
  }
}

TEST(LogBinomial, FastPathMatchesThreeLookupsBitwise) {
  // The in-table fast path computes t[n] - t[k] - t[n-k]; the generic path
  // is the same subtraction of the same values, so results are identical
  // bits. Spot-check across the data-scale range the WAIC kernel uses.
  for (std::int64_t n : {136L, 300L, 2047L, 4095L}) {
    for (std::int64_t k : {0L, 1L, 7L, 96L, 136L}) {
      if (k > n) continue;
      EXPECT_EQ(m::log_binomial(n, k),
                m::log_factorial(n) - m::log_factorial(k) -
                    m::log_factorial(n - k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogBinomial, SmallValuesExact) {
  EXPECT_NEAR(m::log_binomial(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(m::log_binomial(10, 5), std::log(252.0), 1e-12);
  EXPECT_NEAR(m::log_binomial(52, 5), std::log(2598960.0), 1e-10);
  EXPECT_DOUBLE_EQ(m::log_binomial(7, 0), 0.0);
  EXPECT_DOUBLE_EQ(m::log_binomial(7, 7), 0.0);
}

TEST(LogBinomial, SymmetryProperty) {
  for (std::int64_t n = 1; n <= 60; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(m::log_binomial(n, k), m::log_binomial(n, n - k), 1e-10);
    }
  }
}

TEST(LogBinomial, PascalRecurrence) {
  // C(n,k) = C(n-1,k-1) + C(n-1,k), verified in the log domain.
  for (std::int64_t n = 2; n <= 40; ++n) {
    for (std::int64_t k = 1; k < n; ++k) {
      const double lhs = m::log_binomial(n, k);
      const double rhs = m::log_sum_exp(m::log_binomial(n - 1, k - 1),
                                        m::log_binomial(n - 1, k));
      EXPECT_NEAR(lhs, rhs, 1e-10);
    }
  }
}

TEST(LogNegBinomialCoefficient, ReducesToBinomialForIntegerShape) {
  // C(k + a - 1, k) with integer a equals the ordinary binomial coefficient.
  EXPECT_NEAR(m::log_negbinomial_coefficient(3.0, 4),
              m::log_binomial(6, 4), 1e-12);
  EXPECT_NEAR(m::log_negbinomial_coefficient(1.0, 9), 0.0, 1e-12);
}

TEST(LogNegBinomialCoefficient, RealShapeAgainstReference) {
  // Gamma(2.5+3)/ (Gamma(2.5) 3!) = (4.5*3.5*2.5)/6 = 6.5625.
  EXPECT_NEAR(m::log_negbinomial_coefficient(2.5, 3), std::log(6.5625),
              1e-12);
}

TEST(LogSumExp, BasicIdentities) {
  EXPECT_NEAR(m::log_sum_exp(std::log(2.0), std::log(3.0)), std::log(5.0),
              1e-12);
  const double neg_inf = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(m::log_sum_exp(neg_inf, 1.5), 1.5);
  EXPECT_DOUBLE_EQ(m::log_sum_exp(1.5, neg_inf), 1.5);
}

TEST(LogSumExp, NoOverflowForLargeInputs) {
  const double big = 900.0;  // exp(900) overflows double
  EXPECT_NEAR(m::log_sum_exp(big, big), big + std::log(2.0), 1e-9);
}

TEST(LogSumExp, SpanVersionMatchesPairwise) {
  const double values[] = {-1.0, 0.5, 2.0, -3.0};
  double acc = -std::numeric_limits<double>::infinity();
  for (const double v : values) acc = m::log_sum_exp(acc, v);
  EXPECT_NEAR(m::log_sum_exp(values), acc, 1e-12);
}

TEST(LogSumExp, EmptySpanIsNegInfinity) {
  EXPECT_EQ(m::log_sum_exp(std::span<const double>{}),
            -std::numeric_limits<double>::infinity());
}

TEST(RegularizedGammaP, ReferenceValues) {
  // mpmath: gammainc(a, 0, x, regularized=True)
  EXPECT_NEAR(m::regularized_gamma_p(1.0, 1.0), 0.63212055882855768, 1e-12);
  EXPECT_NEAR(m::regularized_gamma_p(2.5, 1.0), 0.15085496391539038, 1e-12);
  EXPECT_NEAR(m::regularized_gamma_p(10.0, 12.0), 0.75760783832948765, 1e-11);
  EXPECT_NEAR(m::regularized_gamma_p(0.5, 0.25), 0.52049987781304654, 1e-12);
  EXPECT_NEAR(m::regularized_gamma_p(100.0, 90.0), 0.15822098918643016, 1e-10);
}

TEST(RegularizedGammaP, LargeShapeNearTheMode) {
  // Near x ~ a the series needs about 8 sqrt(a) terms (2462 at a = 1e5),
  // so the iteration caps must grow with a. References computed
  // independently with mpmath at 50 significant digits.
  const double a = 1e5;
  struct Reference {
    double x;
    double p;
    double log_p;
  };
  for (const auto& ref : {Reference{a - 300.0, 0.17141731451450292,
                                    -1.7636542597494873},
                          Reference{a, 0.50042052211036518,
                                    -0.69230648981872485},
                          Reference{a + 300.0, 0.82863631125120765,
                                    -0.18797392788625588}}) {
    EXPECT_NEAR(m::regularized_gamma_p(a, ref.x), ref.p, 1e-8 * ref.p)
        << ref.x;
    EXPECT_NEAR(m::regularized_gamma_q(a, ref.x), 1.0 - ref.p, 1e-8)
        << ref.x;
    EXPECT_NEAR(m::log_regularized_gamma_p(a, ref.x), ref.log_p, 1e-8)
        << ref.x;
  }
}

TEST(RegularizedGammaP, ComplementConsistency) {
  for (const double a : {0.3, 1.0, 4.2, 25.0}) {
    for (const double x : {0.1, 1.0, 5.0, 30.0}) {
      EXPECT_NEAR(m::regularized_gamma_p(a, x) + m::regularized_gamma_q(a, x),
                  1.0, 1e-12);
    }
  }
}

TEST(RegularizedGammaP, PoissonCdfIdentity) {
  // sum_{j<=k} e^-mu mu^j/j! = Q(k+1, mu).
  const double mu = 7.3;
  double cdf = 0.0;
  double term = std::exp(-mu);
  for (int j = 0; j <= 12; ++j) {
    cdf += term;
    term *= mu / (j + 1);
  }
  EXPECT_NEAR(m::regularized_gamma_q(13.0, mu), cdf, 1e-12);
}

TEST(LogRegularizedGammaP, MatchesDirectLogWhereBothAreAccurate) {
  for (const double a : {0.7, 3.0, 40.0}) {
    for (const double x : {0.5, 2.0, 35.0, 80.0}) {
      const double direct = std::log(m::regularized_gamma_p(a, x));
      EXPECT_NEAR(m::log_regularized_gamma_p(a, x), direct,
                  1e-10 * (1.0 + std::abs(direct)))
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(LogRegularizedGammaP, UpperTailAgreesBitForBitWithContinuedFraction) {
  // From x = a + 1 on, log P is log(1 - Q) with Q from the continued
  // fraction; where Q provably rounds away the fraction is skipped, and
  // the result must not move by a bit anywhere on [a + 1, 50a].
  for (const double a : {1.0, 1.5, 137.0, 1e4, 1e5}) {
    constexpr int kPoints = 400;
    for (int i = 0; i <= kPoints; ++i) {
      const double x = (a + 1.0) * std::pow(50.0 * a / (a + 1.0),
                                            static_cast<double>(i) / kPoints);
      const double direct = std::log(m::regularized_gamma_p(a, x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m::log_regularized_gamma_p(a, x)),
                std::bit_cast<std::uint64_t>(direct))
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(LogRegularizedGammaP, AccurateWhereDirectUnderflows) {
  // P(137, 0.01) ~ 1e-600: far below double range, but its log is fine.
  const double value = m::log_regularized_gamma_p(137.0, 0.01);
  EXPECT_TRUE(std::isfinite(value));
  // log P(a, x) ~ a log x - lgamma(a+1) for x -> 0.
  const double approx = 137.0 * std::log(0.01) - std::lgamma(138.0) - 0.01;
  EXPECT_NEAR(value, approx, 1e-6 * std::abs(approx));
}

TEST(LogRegularizedGammaP, ZeroArgumentIsNegInf) {
  EXPECT_EQ(m::log_regularized_gamma_p(5.0, 0.0),
            -std::numeric_limits<double>::infinity());
}

TEST(InverseRegularizedGammaP, RoundTrips) {
  for (const double a : {0.5, 1.0, 3.0, 17.5, 137.0}) {
    for (const double p : {0.001, 0.05, 0.3, 0.5, 0.9, 0.999}) {
      const double x = m::inverse_regularized_gamma_p(a, p);
      EXPECT_NEAR(m::regularized_gamma_p(a, x), p, 1e-9)
          << "a=" << a << " p=" << p;
    }
  }
}

TEST(InverseRegularizedGammaP, ZeroMapsToZero) {
  EXPECT_DOUBLE_EQ(m::inverse_regularized_gamma_p(2.0, 0.0), 0.0);
}

TEST(RegularizedBeta, ReferenceValues) {
  // mpmath: betainc(a, b, 0, x, regularized=True)
  EXPECT_NEAR(m::regularized_beta(2.0, 3.0, 0.4), 0.5247999999999999, 1e-12);
  EXPECT_NEAR(m::regularized_beta(0.5, 0.5, 0.3), 0.36901011956554538, 1e-12);
  EXPECT_NEAR(m::regularized_beta(5.0, 1.0, 0.9), 0.59048999999999947, 1e-12);
  EXPECT_NEAR(m::regularized_beta(10.0, 20.0, 0.25), 0.16630494959787945,
              1e-10);
}

TEST(RegularizedBeta, SymmetryIdentity) {
  for (const double a : {0.7, 2.0, 8.0}) {
    for (const double b : {0.4, 1.0, 5.5}) {
      for (const double x : {0.1, 0.42, 0.77}) {
        EXPECT_NEAR(m::regularized_beta(a, b, x),
                    1.0 - m::regularized_beta(b, a, 1.0 - x), 1e-11);
      }
    }
  }
}

TEST(RegularizedBeta, BinomialCdfIdentity) {
  // P(Bin(n,p) <= k) = I_{1-p}(n-k, k+1).
  const int n = 12;
  const double p = 0.37;
  double cdf = 0.0;
  for (int j = 0; j <= 5; ++j) {
    cdf += std::exp(m::log_binomial(n, j) + j * std::log(p) +
                    (n - j) * std::log1p(-p));
  }
  EXPECT_NEAR(m::regularized_beta(n - 5, 6, 1.0 - p), cdf, 1e-12);
}

TEST(NormalCdf, ReferenceValues) {
  EXPECT_NEAR(m::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(m::normal_cdf(1.0), 0.84134474606854293, 1e-12);
  EXPECT_NEAR(m::normal_cdf(-1.959963984540054), 0.025, 1e-12);
  EXPECT_NEAR(m::normal_cdf(3.0), 0.99865010196836990, 1e-12);
}

TEST(NormalQuantile, RoundTrips) {
  for (const double p : {1e-8, 1e-4, 0.025, 0.3, 0.5, 0.8, 0.975, 0.9999}) {
    EXPECT_NEAR(m::normal_cdf(m::normal_quantile(p)), p, 1e-12)
        << "p=" << p;
  }
}

TEST(NormalQuantile, KnownCriticalValues) {
  EXPECT_NEAR(m::normal_quantile(0.975), 1.9599639845400545, 1e-10);
  EXPECT_NEAR(m::normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(m::normal_quantile(0.84134474606854293), 1.0, 1e-10);
}

TEST(LogBeta, MatchesGammaDefinition) {
  for (const double a : {0.5, 2.0, 7.7}) {
    for (const double b : {1.0, 3.2, 11.0}) {
      EXPECT_NEAR(m::log_beta(a, b),
                  std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b),
                  1e-13);
    }
  }
}
