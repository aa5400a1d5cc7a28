#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

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

namespace {

// Smallest value of an ascending sample whose empirical CDF reaches p.
std::int64_t sorted_quantile(std::span<const std::int64_t> sorted, double p) {
  if (fp::is_one(p)) return sorted.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace

IntegerSampleSummary summarize_integers(
    std::span<const std::int64_t> values) {
  SRM_EXPECTS(!values.empty(),
              "summarize_integers requires a non-empty sample");
  IntegerSampleSummary s;
  s.count = values.size();

  double running_mean = 0.0;
  double m2 = 0.0;
  std::size_t n = 0;
  for (const std::int64_t v : values) {
    ++n;
    const double d = static_cast<double>(v);
    const double delta = d - running_mean;
    running_mean += delta / static_cast<double>(n);
    m2 += delta * (d - running_mean);
  }
  s.mean = running_mean;
  s.sd = values.size() >= 2
             ? std::sqrt(m2 / static_cast<double>(values.size() - 1))
             : 0.0;

  // One sorted copy gives the range, the median and the mode: the longest
  // run of equal values, the first (smallest) on ties.
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = sorted_quantile(sorted, 0.5);
  std::size_t best = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    run = i > 0 && sorted[i] == sorted[i - 1] ? run + 1 : 1;
    if (run > best) {
      best = run;
      s.mode = sorted[i];
    }
  }
  return s;
}

std::int64_t integer_quantile(std::span<const std::int64_t> values,
                              double p) {
  SRM_EXPECTS(!values.empty(), "integer_quantile requires samples");
  SRM_EXPECTS(p >= 0.0 && p <= 1.0, "integer_quantile requires p in [0, 1]");
  std::vector<std::int64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted_quantile(sorted, p);
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
