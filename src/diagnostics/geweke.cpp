#include "diagnostics/geweke.hpp"

#include <cmath>
#include <limits>

#include "diagnostics/ess.hpp"
#include "stats/summary.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::diagnostics {

double spectral_variance_of_mean(std::span<const double> values) {
  SRM_EXPECTS(values.size() >= 4,
              "spectral variance requires at least 4 samples");
  return stats::autocovariance(values, 0) / effective_sample_size(values);
}

void require_geweke_draws(std::size_t draws_per_chain) {
  const auto first_n = static_cast<std::size_t>(
      std::floor(0.1 * static_cast<double>(draws_per_chain)));
  const auto last_n = static_cast<std::size_t>(
      std::floor(0.5 * static_cast<double>(draws_per_chain)));
  SRM_EXPECTS(first_n >= kGewekeMinWindow && last_n >= kGewekeMinWindow,
              "Geweke diagnostics need at least 40 retained draws per "
              "chain, got " +
                  support::dec(draws_per_chain));
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
