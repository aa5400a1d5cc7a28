#include "core/likelihood.hpp"

#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/math.hpp"

namespace srm::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

double log_pointwise_likelihood(const data::BugCountData& data,
                                std::size_t day, std::int64_t initial_bugs,
                                std::span<const double> probabilities) {
  SRM_EXPECTS(day >= 1 && day <= data.days(), "day out of range");
  SRM_EXPECTS(probabilities.size() >= data.days(),
              "need a probability for every testing day");
  const double p = probabilities[day - 1];
  return log_day_likelihood(initial_bugs - data.cumulative_through(day - 1),
                            data.count_on_day(day), p,
                            p >= 1.0 ? kNegInf : std::log1p(-p));
}

double log_likelihood(const data::BugCountData& data,
                      std::int64_t initial_bugs,
                      std::span<const double> probabilities) {
  SRM_EXPECTS(probabilities.size() >= data.days(),
              "need a probability for every testing day");
  double total = 0.0;
  for (std::size_t day = 1; day <= data.days(); ++day) {
    total += log_pointwise_likelihood(data, day, initial_bugs, probabilities);
    if (total == kNegInf) return kNegInf;
  }
  return total;
}

double log_likelihood_n_kernel(const data::BugCountData& data,
                               std::int64_t initial_bugs,
                               std::span<const double> probabilities) {
  SRM_EXPECTS(probabilities.size() >= data.days(),
              "need a probability for every testing day");
  const std::int64_t s_k = data.total();
  if (initial_bugs < s_k) return kNegInf;
  double log_q_sum = 0.0;
  for (std::size_t i = 0; i < data.days(); ++i) {
    const double q = 1.0 - probabilities[i];
    if (q <= 0.0) {
      // p_i = 1 forces all remaining bugs found on day i; the kernel is only
      // finite if nothing remains after day i.
      if (initial_bugs != data.cumulative()[i]) return kNegInf;
      continue;
    }
    log_q_sum += std::log(q);
  }
  // log N!/(N-s_k)! + N sum log q_i, dropping terms constant in N. Note
  // sum_i (N - s_i) log q_i = N sum log q_i - sum s_i log q_i; the second
  // term is constant in N.
  return math::log_factorial(initial_bugs) -
         math::log_factorial(initial_bugs - s_k) +
         static_cast<double>(initial_bugs) * log_q_sum;
}

double log_likelihood_zeta_kernel(const data::BugCountData& data,
                                  std::int64_t initial_bugs,
                                  std::span<const double> probabilities) {
  SRM_EXPECTS(probabilities.size() >= data.days(),
              "need a probability for every testing day");
  if (initial_bugs < data.total()) return kNegInf;
  double total = 0.0;
  const auto cumulative = data.cumulative();
  const auto counts = data.counts();
  for (std::size_t i = 0; i < data.days(); ++i) {
    const double p = probabilities[i];
    const std::int64_t x = counts[i];
    const std::int64_t after = initial_bugs - cumulative[i];
    if (p <= 0.0) {
      if (x != 0) return kNegInf;
      continue;
    }
    if (p >= 1.0) {
      if (after != 0) return kNegInf;
      continue;
    }
    total += static_cast<double>(x) * std::log(p) +
             static_cast<double>(after) * std::log1p(-p);
  }
  return total;
}

double log_likelihood_zeta_kernel(const data::BugCountData& data,
                                  std::int64_t initial_bugs,
                                  std::span<const double> probabilities,
                                  std::span<const double> log_survivals) {
  SRM_EXPECTS(probabilities.size() >= data.days() &&
                  log_survivals.size() >= data.days(),
              "need probability and log-survival for every testing day");
  if (initial_bugs < data.total()) return kNegInf;
  double total = 0.0;
  const auto cumulative = data.cumulative();
  const auto counts = data.counts();
  for (std::size_t i = 0; i < data.days(); ++i) {
    const double p = probabilities[i];
    const double log_q = log_survivals[i];
    const std::int64_t x = counts[i];
    const std::int64_t after = initial_bugs - cumulative[i];
    if (p <= 0.0) {
      // Certain survival: q = 1 contributes nothing; x must be 0.
      if (x != 0) return kNegInf;
      continue;
    }
    if (log_q == kNegInf) {
      // Certain detection: everything must be found by day i.
      if (after != 0) return kNegInf;
      continue;
    }
    // log(p) dominates the loop and is pointless on zero-count days (the
    // virtual-testing extension appends many); skip it, substituting the
    // exact bits of the skipped product: 0 * log(p) is -0.0 for p < 1.
    const double x_term = x != 0
                              ? static_cast<double>(x) * std::log(p)
                              : (p < 1.0 ? -0.0 : 0.0);
    total += x_term + static_cast<double>(after) * log_q;
  }
  return total;
}

double log_likelihood_collapsed_base(const data::BugCountData& data,
                                     std::span<const double> probabilities) {
  SRM_EXPECTS(probabilities.size() >= data.days(),
              "need a probability for every testing day");
  const std::int64_t s_k = data.total();
  const auto cumulative = data.cumulative();
  const auto counts = data.counts();
  double total = 0.0;
  for (std::size_t i = 0; i < data.days(); ++i) {
    const double p = probabilities[i];
    const std::int64_t x = counts[i];
    const std::int64_t exponent = s_k - cumulative[i];
    if (p <= 0.0) {
      if (x != 0) return kNegInf;
      continue;
    }
    if (p >= 1.0) {
      if (exponent != 0) return kNegInf;
      // q_i^0 = 1; the p_i^{x_i} factor is 1^{x_i} = 1.
      continue;
    }
    total += static_cast<double>(x) * std::log(p) +
             static_cast<double>(exponent) * std::log1p(-p);
  }
  return total;
}

double log_likelihood_collapsed_base(const data::BugCountData& data,
                                     std::span<const double> probabilities,
                                     std::span<const double> log_survivals) {
  SRM_EXPECTS(probabilities.size() >= data.days() &&
                  log_survivals.size() >= data.days(),
              "need probability and log-survival for every testing day");
  const std::int64_t s_k = data.total();
  const auto cumulative = data.cumulative();
  const auto counts = data.counts();
  double total = 0.0;
  for (std::size_t i = 0; i < data.days(); ++i) {
    const double p = probabilities[i];
    const double log_q = log_survivals[i];
    const std::int64_t x = counts[i];
    const std::int64_t exponent = s_k - cumulative[i];
    if (p <= 0.0) {
      if (x != 0) return kNegInf;
      continue;
    }
    if (log_q == kNegInf) {
      if (exponent != 0) return kNegInf;
      continue;
    }
    // Same zero-count shortcut (and -0.0 bit preservation) as the zeta
    // kernel above.
    const double x_term = x != 0
                              ? static_cast<double>(x) * std::log(p)
                              : (p < 1.0 ? -0.0 : 0.0);
    total += x_term + static_cast<double>(exponent) * log_q;
  }
  return total;
}

double log_survival_product(std::span<const double> probabilities) {
  double log_product = 0.0;
  for (const double p : probabilities) {
    SRM_EXPECTS(p >= 0.0 && p <= 1.0, "probabilities must lie in [0, 1]");
    if (p >= 1.0) return kNegInf;
    log_product += std::log1p(-p);
  }
  return log_product;
}

double survival_product(std::span<const double> probabilities) {
  return std::exp(log_survival_product(probabilities));
}

}  // namespace srm::core
