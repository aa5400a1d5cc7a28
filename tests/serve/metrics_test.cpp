// LatencySeries: a fixed log-bucket histogram whose memory does not grow
// with the request count, exact count and max, and quantiles exact to one
// bucket (a bucket spans at most 1/16 of its lower edge).
#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hpp"

namespace {

using srm::serve::LatencySeries;

/// The sorted-sample quantile the summary stands for: rank round(q (n-1)).
std::int64_t sorted_quantile(std::vector<std::int64_t> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[rank];
}

TEST(LatencySeries, HoldsNoHeapStorage) {
  // Trivially copyable means every counter lives inside the object, so a
  // million requests cost exactly what one does.
  static_assert(std::is_trivially_copyable_v<LatencySeries>);
  EXPECT_LE(sizeof(LatencySeries), 8u * 1024u);
  LatencySeries series;
  for (std::int64_t i = 0; i < 1'000'000; ++i) series.record(i % 5000);
  EXPECT_EQ(series.count(), 1'000'000u);
  EXPECT_EQ(series.summary().at("max_us").as_int(), 4999);
}

TEST(LatencySeries, EmptySummaryIsZeros) {
  const auto summary = LatencySeries().summary();
  EXPECT_EQ(summary.at("count").as_int(), 0);
  for (const char* key : {"p50_us", "p90_us", "p99_us", "max_us"}) {
    EXPECT_EQ(summary.at(key).as_int(), 0) << key;
  }
}

TEST(LatencySeries, QuantilesAreExactToOneBucket) {
  srm::random::Rng rng(20240624);
  for (const double spread : {10.0, 1e3, 1e6, 1e9}) {
    LatencySeries series;
    std::vector<std::int64_t> samples;
    for (int i = 0; i < 4001; ++i) {
      // Log-uniform over [0, spread]: every bucket width gets exercised.
      const auto us = static_cast<std::int64_t>(
          std::exp(rng.uniform() * std::log1p(spread)) - 1.0);
      samples.push_back(us);
      series.record(us);
    }
    const auto summary = series.summary();
    EXPECT_EQ(summary.at("count").as_int(), 4001);
    EXPECT_EQ(summary.at("max_us").as_int(),
              *std::max_element(samples.begin(), samples.end()));
    for (const auto& [key, q] :
         {std::pair{"p50_us", 0.50}, {"p90_us", 0.90}, {"p99_us", 0.99}}) {
      const std::int64_t exact = sorted_quantile(samples, q);
      const std::int64_t reported = summary.at(key).as_int();
      EXPECT_GE(reported, exact) << key << " spread " << spread;
      EXPECT_LE(reported, exact + exact / 16) << key << " spread " << spread;
    }
  }
}

TEST(LatencySeries, TheWholeInt64RangeHasABucket) {
  LatencySeries series;
  series.record(0);
  series.record(std::numeric_limits<std::int64_t>::max());
  const auto summary = series.summary();
  EXPECT_EQ(summary.at("p50_us").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(summary.at("max_us").as_int(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(LatencySeries, SmallValuesAreExact) {
  LatencySeries series;
  for (const std::int64_t us : {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}) {
    series.record(us);
  }
  const auto summary = series.summary();
  EXPECT_EQ(summary.at("p50_us").as_int(), 4);
  EXPECT_EQ(summary.at("p99_us").as_int(), 9);
  EXPECT_EQ(summary.at("max_us").as_int(), 9);
}

}  // namespace
