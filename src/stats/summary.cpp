#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "support/error.hpp"
#include "support/fp.hpp"

namespace srm::stats {

double mean(std::span<const double> values) {
  SRM_EXPECTS(!values.empty(), "mean requires a non-empty sample");
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double sample_variance(std::span<const double> values) {
  SRM_EXPECTS(values.size() >= 2, "sample_variance requires >= 2 values");
  // Welford's one-pass algorithm for numerical stability.
  double running_mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (const double v : values) {
    ++n;
    const double delta = v - running_mean;
    running_mean += delta / static_cast<double>(n);
    m2 += delta * (v - running_mean);
  }
  return m2 / static_cast<double>(n - 1);
}

FiveNumberSummary five_number_summary(std::span<const double> values) {
  SRM_EXPECTS(!values.empty(),
              "five_number_summary requires a non-empty sample");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  auto type7 = [&](double p) {
    const double h = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = static_cast<std::size_t>(std::ceil(h));
    if (lo == hi) return sorted[lo];
    const double w = h - static_cast<double>(lo);
    return sorted[lo] * (1.0 - w) + sorted[hi] * w;
  };
  FiveNumberSummary s;
  s.q1 = type7(0.25);
  s.median = type7(0.5);
  s.q3 = type7(0.75);
  const double iqr = s.q3 - s.q1;
  const double lo_fence = s.q1 - 1.5 * iqr;
  const double hi_fence = s.q3 + 1.5 * iqr;
  // Whiskers: most extreme observations inside the fences.
  s.whisker_low = sorted.front();
  for (const double v : sorted) {
    if (v >= lo_fence) {
      s.whisker_low = v;
      break;
    }
  }
  s.whisker_high = sorted.back();
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    if (*it <= hi_fence) {
      s.whisker_high = *it;
      break;
    }
  }
  return s;
}

IntegerSampleSummary summarize_integers(
    std::span<const std::int64_t> values) {
  SRM_EXPECTS(!values.empty(),
              "summarize_integers requires a non-empty sample");
  IntegerSampleSummary s;
  s.count = values.size();

  double running_mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  std::unordered_map<std::int64_t, std::size_t> frequency;
  s.min = values.front();
  s.max = values.front();
  for (const std::int64_t v : values) {
    ++n;
    const double d = static_cast<double>(v);
    const double delta = d - running_mean;
    running_mean += delta / static_cast<double>(n);
    m2 += delta * (d - running_mean);
    ++frequency[v];
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = running_mean;
  s.sd = values.size() >= 2
             ? std::sqrt(m2 / static_cast<double>(values.size() - 1))
             : 0.0;

  s.mode = s.min;
  std::size_t best = 0;
  for (const auto& [value, count] : frequency) {
    if (count > best || (count == best && value < s.mode)) {
      best = count;
      s.mode = value;
    }
  }
  s.median = integer_quantile(values, 0.5);
  return s;
}

std::int64_t integer_quantile(std::span<const std::int64_t> values,
                              double p) {
  SRM_EXPECTS(!values.empty(), "integer_quantile requires samples");
  SRM_EXPECTS(p >= 0.0 && p <= 1.0, "integer_quantile requires p in [0, 1]");
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (fp::is_one(p)) return sorted.back();
  // Smallest value whose empirical CDF reaches p.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

double autocovariance(std::span<const double> values, std::size_t lag) {
  SRM_EXPECTS(values.size() > lag,
              "autocovariance requires more samples than the lag");
  const double m = mean(values);
  double sum = 0.0;
  for (std::size_t i = 0; i + lag < values.size(); ++i) {
    sum += (values[i] - m) * (values[i + lag] - m);
  }
  return sum / static_cast<double>(values.size());
}

}  // namespace srm::stats
