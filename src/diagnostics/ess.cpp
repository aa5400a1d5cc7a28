#include "diagnostics/ess.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/summary.hpp"
#include "support/error.hpp"

namespace srm::diagnostics {

double effective_sample_size(std::span<const double> chain) {
  SRM_EXPECTS(chain.size() >= 4,
              "effective_sample_size requires at least 4 samples");
  const auto n = static_cast<double>(chain.size());
  const double c0 = stats::autocovariance(chain, 0);
  if (c0 <= 0.0) return n;  // constant chain: every draw equals the mean

  // Geyer (1992): sum consecutive autocovariance pairs while positive,
  // enforcing monotone decrease of the pair sums.
  double sum = 0.0;
  double previous_pair = std::numeric_limits<double>::infinity();
  for (std::size_t lag = 1; lag + 1 < chain.size(); lag += 2) {
    const double pair = stats::autocovariance(chain, lag) +
                        stats::autocovariance(chain, lag + 1);
    if (pair <= 0.0) break;
    const double capped = std::min(pair, previous_pair);
    sum += capped;
    previous_pair = capped;
  }
  const double tau = 1.0 + 2.0 * sum / c0;
  return std::clamp(n / std::max(tau, 1.0), 1.0, n);
}

}  // namespace srm::diagnostics
