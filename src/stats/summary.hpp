// Descriptive statistics over samples — the machinery behind the paper's
// Tables II-V (posterior mean / median / mode / standard deviation) and the
// box plots of Figs 2-3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace srm::stats {

/// Arithmetic mean. Empty input is a precondition violation.
double mean(std::span<const double> values);

/// Unbiased (n-1) sample variance; requires at least 2 values.
double sample_variance(std::span<const double> values);

/// Five-number box-plot statistics with Tukey 1.5*IQR whiskers clipped to
/// the observed range (matplotlib's default convention, as used in the
/// paper's figures).
struct FiveNumberSummary {
  double whisker_low = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_high = 0.0;
};
FiveNumberSummary five_number_summary(std::span<const double> values);

/// Summary of an integer-valued posterior sample (residual bug counts).
struct IntegerSampleSummary {
  double mean = 0.0;
  double sd = 0.0;
  std::int64_t median = 0;
  std::int64_t mode = 0;   ///< most frequent value; smallest on ties
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::size_t count = 0;
};
IntegerSampleSummary summarize_integers(std::span<const std::int64_t> values);

/// Empirical quantile of integer samples: smallest v with F̂(v) >= p.
std::int64_t integer_quantile(std::span<const std::int64_t> values, double p);

/// Lag-h sample autocovariance (denominator n, as standard in MCMC work).
double autocovariance(std::span<const double> values, std::size_t lag);

}  // namespace srm::stats
