// Tests for the descriptive-statistics helpers.
#include "stats/summary.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "support/error.hpp"

namespace {

namespace st = srm::stats;

TEST(Mean, KnownVector) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(st::mean(v), 2.5);
}

TEST(Mean, EmptyThrows) {
  EXPECT_THROW(st::mean(std::vector<double>{}), srm::InvalidArgument);
}

TEST(SampleVariance, KnownVector) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(st::sample_variance(v), 32.0 / 7.0, 1e-12);
}

TEST(SampleVariance, StableUnderLargeOffset) {
  // Welford should not catastrophically cancel with a large common offset.
  const std::vector<double> v{1e9 + 1.0, 1e9 + 2.0, 1e9 + 3.0};
  EXPECT_NEAR(st::sample_variance(v), 1.0, 1e-6);
}

TEST(SampleVariance, RequiresTwoValues) {
  EXPECT_THROW(st::sample_variance(std::vector<double>{1.0}),
               srm::InvalidArgument);
}

TEST(FiveNumberSummary, NoOutliers) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(static_cast<double>(i));
  const auto s = st::five_number_summary(v);
  EXPECT_DOUBLE_EQ(s.median, 6.0);
  EXPECT_DOUBLE_EQ(s.q1, 3.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.5);
  EXPECT_DOUBLE_EQ(s.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(s.whisker_high, 11.0);
}

TEST(FiveNumberSummary, OutliersClippedByTukeyFences) {
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(static_cast<double>(i));
  v.push_back(100.0);  // far outlier
  const auto s = st::five_number_summary(v);
  // Whisker must stop at the largest observation inside q3 + 1.5 IQR.
  EXPECT_LT(s.whisker_high, 100.0);
  EXPECT_GE(s.whisker_high, s.q3);
}

// five_number_summary's quartiles and median are R type-7 quantiles.
TEST(Quantile, Type7Interpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const auto s = st::five_number_summary(v);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);  // R type-7 convention
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_DOUBLE_EQ(s.whisker_low, 1.0);
  EXPECT_DOUBLE_EQ(s.whisker_high, 4.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  const auto s = st::five_number_summary(v);
  EXPECT_DOUBLE_EQ(s.q1, 1.75);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.q3, 3.25);
  EXPECT_DOUBLE_EQ(
      st::five_number_summary(std::vector<double>{9.0, 1.0, 5.0}).median, 5.0);
}

TEST(FiveNumberSummary, ConstantSample) {
  const std::vector<double> v{5.0, 5.0, 5.0};
  const auto s = st::five_number_summary(v);
  EXPECT_DOUBLE_EQ(s.whisker_low, 5.0);
  EXPECT_DOUBLE_EQ(s.whisker_high, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 5.0);
}

TEST(IntegerSummary, ModeMedianMinMax) {
  const std::vector<std::int64_t> v{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  const auto s = st::summarize_integers(v);
  EXPECT_EQ(s.mode, 5);  // appears three times
  EXPECT_EQ(s.median, 4);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 9);
  EXPECT_EQ(s.count, v.size());
  EXPECT_NEAR(s.mean, 44.0 / 11.0, 1e-12);
}

TEST(IntegerSummary, ModeTieBreaksToSmallest) {
  const std::vector<std::int64_t> v{2, 2, 7, 7, 1};
  EXPECT_EQ(st::summarize_integers(v).mode, 2);
}

TEST(IntegerSummary, SingleValue) {
  const std::vector<std::int64_t> v{42};
  const auto s = st::summarize_integers(v);
  EXPECT_EQ(s.mode, 42);
  EXPECT_EQ(s.median, 42);
  EXPECT_DOUBLE_EQ(s.sd, 0.0);
}

TEST(IntegerSummary, ModeAndMedianMatchBruteForceCounts) {
  // Random samples with negative values, wide ranges and many ties: the
  // mode is the most frequent value (smallest on ties) and the median the
  // smallest value with at least half the sample at or below it.
  srm::random::Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<std::size_t>(1 + rng.uniform_index(300));
    const std::int64_t spread =
        trial % 2 == 0 ? 20 : std::int64_t{1} << (10 + trial % 40);
    std::vector<std::int64_t> v(n);
    for (auto& x : v) {
      x = static_cast<std::int64_t>(
              rng.uniform_index(static_cast<std::uint64_t>(2 * spread + 1))) -
          spread;
    }
    std::int64_t mode = 0;
    std::size_t best = 0;
    std::int64_t median = 0;
    bool median_found = false;
    for (const std::int64_t candidate : v) {
      const auto equal = static_cast<std::size_t>(
          std::count(v.begin(), v.end(), candidate));
      if (equal > best || (equal == best && candidate < mode)) {
        best = equal;
        mode = candidate;
      }
      const auto at_most = static_cast<std::size_t>(std::count_if(
          v.begin(), v.end(), [&](std::int64_t x) { return x <= candidate; }));
      if (2 * at_most >= n && (!median_found || candidate < median)) {
        median = candidate;
        median_found = true;
      }
    }
    const auto s = st::summarize_integers(v);
    EXPECT_EQ(s.mode, mode) << "trial " << trial;
    EXPECT_EQ(s.median, median) << "trial " << trial;
    EXPECT_EQ(s.median, st::integer_quantile(v, 0.5)) << "trial " << trial;
    EXPECT_EQ(s.min, *std::min_element(v.begin(), v.end()));
    EXPECT_EQ(s.max, *std::max_element(v.begin(), v.end()));
  }
}

TEST(IntegerQuantile, MatchesEmpiricalCdfConvention) {
  const std::vector<std::int64_t> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(st::integer_quantile(v, 0.5), 5);
  EXPECT_EQ(st::integer_quantile(v, 0.1), 1);
  EXPECT_EQ(st::integer_quantile(v, 1.0), 10);
  EXPECT_EQ(st::integer_quantile(v, 0.0), 1);
}

/// Lag-h autocorrelation from the kept autocovariance.
double autocorrelation(const std::vector<double>& v, std::size_t lag) {
  return st::autocovariance(v, lag) / st::autocovariance(v, 0);
}

TEST(Autocovariance, WhiteNoiseNearZeroAtLag) {
  // Deterministic pseudo-noise via a simple LCG to avoid test flakiness.
  std::vector<double> v;
  std::uint64_t s = 1;
  for (int i = 0; i < 20000; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    v.push_back(static_cast<double>(s >> 11) * 0x1.0p-53 - 0.5);
  }
  EXPECT_NEAR(st::autocovariance(v, 0), 1.0 / 12.0, 2e-3);
  EXPECT_NEAR(autocorrelation(v, 1), 0.0, 0.03);
  EXPECT_NEAR(autocorrelation(v, 5), 0.0, 0.03);
}

TEST(Autocovariance, PerfectlyCorrelatedSequence) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i % 2));
  // Alternating sequence: lag-1 autocorrelation is -1 (up to edge effects).
  EXPECT_NEAR(autocorrelation(v, 1), -1.0, 0.05);
}

TEST(Autocovariance, ConstantChain) {
  const std::vector<double> v(50, 3.0);
  EXPECT_EQ(st::autocovariance(v, 0), 0.0);
  EXPECT_EQ(st::autocovariance(v, 3), 0.0);
}

}  // namespace
