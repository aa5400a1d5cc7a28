// Tests for the Geweke convergence diagnostic (paper Eq 30, corrected).
#include "diagnostics/geweke.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "random/samplers.hpp"
#include "support/error.hpp"

namespace {

using srm::diagnostics::geweke;
using srm::diagnostics::spectral_variance_of_mean;

TEST(Geweke, StationaryChainPassesCriterion) {
  srm::random::Rng rng(1);
  std::vector<double> chain;
  for (int i = 0; i < 20000; ++i) {
    chain.push_back(srm::random::sample_normal(rng));
  }
  const auto result = geweke(chain);
  EXPECT_LT(std::abs(result.z), srm::diagnostics::kGewekeThreshold);
}

TEST(Geweke, TrendingChainFailsCriterion) {
  srm::random::Rng rng(2);
  std::vector<double> chain;
  for (int i = 0; i < 5000; ++i) {
    chain.push_back(static_cast<double>(i) * 0.001 +
                    srm::random::sample_normal(rng));
  }
  const auto result = geweke(chain);
  EXPECT_GT(std::abs(result.z), srm::diagnostics::kGewekeThreshold);
  // The first window's mean must be below the last window's.
  EXPECT_LT(result.first_mean, result.last_mean);
}

TEST(Geweke, LevelShiftDetected) {
  srm::random::Rng rng(3);
  std::vector<double> chain;
  for (int i = 0; i < 4000; ++i) {
    const double shift = i < 1000 ? 2.0 : 0.0;
    chain.push_back(shift + srm::random::sample_normal(rng));
  }
  EXPECT_GT(std::abs(geweke(chain).z), srm::diagnostics::kGewekeThreshold);
}

TEST(Geweke, ZIsApproximatelyStandardNormalUnderH0) {
  // Across many independent stationary chains the Z statistics should have
  // roughly zero mean and unit variance.
  double sum = 0.0;
  double sum_sq = 0.0;
  const int replicates = 200;
  for (int r = 0; r < replicates; ++r) {
    srm::random::Rng rng(1000 + static_cast<std::uint64_t>(r));
    std::vector<double> chain;
    for (int i = 0; i < 2000; ++i) {
      chain.push_back(srm::random::sample_normal(rng));
    }
    const double z = geweke(chain).z;
    sum += z;
    sum_sq += z * z;
  }
  const double mean = sum / replicates;
  const double var = sum_sq / replicates - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.25);
  EXPECT_NEAR(var, 1.0, 0.45);
}

TEST(Geweke, CalibratedOnAutocorrelatedChains) {
  // Stationary AR(1) chains at rho = 0.8 with the default 250 / 1 250-draw
  // windows: every chain has converged, so Z^2 should average about 1 and
  // |Z| > 1.96 should flag about 5 % of them. A window variance that
  // misses autocorrelation beyond its lag cut-off inflates both.
  constexpr double kRho = 0.8;
  constexpr int kReplicates = 2000;
  std::vector<double> chain(2500);
  double sum_sq = 0.0;
  int flagged = 0;
  for (int r = 0; r < kReplicates; ++r) {
    srm::random::Rng rng(7000 + static_cast<std::uint64_t>(r));
    double x = srm::random::sample_normal(rng) / std::sqrt(1.0 - kRho * kRho);
    for (double& draw : chain) {
      draw = x;
      x = kRho * x + srm::random::sample_normal(rng);
    }
    const double z = geweke(chain).z;
    sum_sq += z * z;
    if (std::abs(z) > srm::diagnostics::kGewekeThreshold) ++flagged;
  }
  EXPECT_LT(sum_sq / kReplicates, 1.35);
  EXPECT_LT(static_cast<double>(flagged) / kReplicates, 0.09);
}

TEST(Geweke, ConstantChainHasZeroZ) {
  const std::vector<double> chain(1000, 3.0);
  EXPECT_DOUBLE_EQ(geweke(chain).z, 0.0);
}

TEST(Geweke, RejectsBadWindows) {
  const std::vector<double> chain(100, 1.0);
  EXPECT_THROW(geweke(chain, 0.0, 0.5), srm::InvalidArgument);
  EXPECT_THROW(geweke(chain, 0.6, 0.5), srm::InvalidArgument);
  EXPECT_THROW(geweke(std::vector<double>(10, 1.0)), srm::InvalidArgument);
  // 30 draws leave the default 10% window 3 draws; 40 is the minimum.
  EXPECT_THROW(geweke(std::vector<double>(30, 1.0)), srm::InvalidArgument);
  EXPECT_THROW(geweke(std::vector<double>(39, 1.0)), srm::InvalidArgument);
  EXPECT_NO_THROW(geweke(std::vector<double>(40, 1.0)));
}

TEST(SpectralVariance, IidMatchesVarOverN) {
  srm::random::Rng rng(5);
  std::vector<double> chain;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    chain.push_back(srm::random::sample_normal(rng, 0.0, 2.0));
  }
  // Var(sample mean) of iid N(0, 4) is 4/n.
  EXPECT_NEAR(spectral_variance_of_mean(chain), 4.0 / n, 0.6 * 4.0 / n);
}

TEST(SpectralVariance, PositiveAutocorrelationInflatesVariance) {
  // AR(1) with rho = 0.8: Var(mean) ~ (1+rho)/(1-rho) * var / n, i.e. the
  // spectral estimate must be much larger than the naive var/n.
  srm::random::Rng rng(6);
  std::vector<double> chain;
  double x = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    x = 0.8 * x + srm::random::sample_normal(rng);
    chain.push_back(x);
  }
  const double var = [&] {
    double s = 0.0, ss = 0.0;
    for (const double v : chain) {
      s += v;
      ss += v * v;
    }
    const double m = s / n;
    return ss / n - m * m;
  }();
  const double naive = var / n;
  EXPECT_GT(spectral_variance_of_mean(chain), 3.0 * naive);
}

}  // namespace
