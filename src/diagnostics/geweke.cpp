#include "diagnostics/geweke.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/summary.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::diagnostics {

double spectral_variance_of_mean(std::span<const double> values) {
  SRM_EXPECTS(values.size() >= 4,
              "spectral variance requires at least 4 samples");
  const auto n = static_cast<double>(values.size());
  // Bartlett window with the common n^(1/2) truncation point.
  const auto max_lag = static_cast<std::size_t>(std::floor(std::sqrt(n)));
  double s0 = stats::autocovariance(values, 0);
  for (std::size_t lag = 1; lag <= max_lag && lag < values.size(); ++lag) {
    const double weight =
        1.0 - static_cast<double>(lag) / static_cast<double>(max_lag + 1);
    s0 += 2.0 * weight * stats::autocovariance(values, lag);
  }
  return std::max(s0, 0.0) / n;
}

GewekeResult geweke(std::span<const double> chain, double first_fraction,
                    double last_fraction) {
  SRM_EXPECTS(first_fraction > 0.0 && last_fraction > 0.0 &&
                  first_fraction + last_fraction < 1.0,
              "geweke window fractions must be positive and sum below 1");
  const std::size_t n = chain.size();
  const auto n_a = static_cast<std::size_t>(
      std::floor(first_fraction * static_cast<double>(n)));
  const auto n_b = static_cast<std::size_t>(
      std::floor(last_fraction * static_cast<double>(n)));
  SRM_EXPECTS(n_a >= kGewekeMinWindow && n_b >= kGewekeMinWindow,
              "geweke needs >= 4 draws per window (at least 40 samples at "
              "the default 0.1/0.5 fractions), got " +
                  support::dec(n) + " samples");
  return geweke_from_windows(chain.subspan(0, n_a), chain.subspan(n - n_b, n_b));
}

GewekeResult geweke_from_windows(std::span<const double> first,
                                 std::span<const double> last) {
  SRM_ASSERT(first.size() >= kGewekeMinWindow &&
                 last.size() >= kGewekeMinWindow,
             "geweke windows too small");

  GewekeResult result;
  result.first_mean = stats::mean(first);
  result.last_mean = stats::mean(last);
  result.first_variance = spectral_variance_of_mean(first);
  result.last_variance = spectral_variance_of_mean(last);
  const double denom =
      std::sqrt(result.first_variance + result.last_variance);
  if (denom <= 0.0) {
    // Both windows constant: equal means converge trivially.
    result.z = (result.first_mean == result.last_mean)
                   ? 0.0
                   : std::numeric_limits<double>::infinity();
  } else {
    result.z = (result.first_mean - result.last_mean) / denom;
  }
  return result;
}

}  // namespace srm::diagnostics
