#include "core/loo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "runtime/parallel_for.hpp"
#include "stats/gpd.hpp"
#include "support/error.hpp"
#include "support/math.hpp"

namespace srm::core {

double pareto_smooth_log_weights(std::vector<double>& log_weights) {
  const std::size_t s = log_weights.size();
  SRM_EXPECTS(s >= 5, "need at least 5 importance ratios");

  // Tail size per Vehtari et al.: M = min(0.2 S, 3 sqrt(S)).
  const auto tail_size = static_cast<std::size_t>(std::min(
      std::ceil(0.2 * static_cast<double>(s)),
      std::ceil(3.0 * std::sqrt(static_cast<double>(s)))));
  if (tail_size < 5) return std::numeric_limits<double>::quiet_NaN();

  // Indices sorted by weight; the tail is the largest `tail_size` ratios.
  std::vector<std::size_t> order(s);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return log_weights[a] < log_weights[b];
  });

  const double log_cutoff = log_weights[order[s - tail_size - 1]];
  // Exceedances on the raw-weight scale, relative to the cutoff.
  std::vector<double> exceedances;
  exceedances.reserve(tail_size);
  for (std::size_t j = s - tail_size; j < s; ++j) {
    const double e =
        std::exp(log_weights[order[j]]) - std::exp(log_cutoff);
    exceedances.push_back(std::max(e, 1e-300));
  }
  const auto gpd = stats::fit_generalized_pareto(exceedances);

  // Replace tail weights by expected order statistics of the fitted GPD,
  // truncated at the raw maximum.
  const double raw_max = log_weights[order[s - 1]];
  for (std::size_t j = 0; j < tail_size; ++j) {
    const double p =
        (static_cast<double>(j) + 0.5) / static_cast<double>(tail_size);
    const double smoothed =
        std::exp(log_cutoff) + gpd.quantile(p);
    log_weights[order[s - tail_size + j]] =
        std::min(std::log(smoothed), raw_max);
  }
  return gpd.k();
}

LooResult compute_psis_loo_from_matrix(const support::Matrix& log_lik) {
  const std::size_t k = log_lik.rows();
  const std::size_t total_samples = log_lik.cols();
  SRM_EXPECTS(total_samples >= 25,
              "PSIS-LOO needs a reasonable number of posterior draws");

  LooResult result;
  result.pointwise.resize(k);
  // Each data point's PSIS fit is independent and writes only its own
  // result slot; the summary accumulation below stays serial (and thus
  // deterministic) in data-point order.
  runtime::parallel_for(0, k, [&](std::size_t i) {
    const auto log_lik_row = log_lik.row(i);
    // Raw log ratios r_s = -log p, shifted for stability.
    std::vector<double> log_w(total_samples);
    for (std::size_t s = 0; s < total_samples; ++s) {
      log_w[s] = -log_lik_row[s];
    }
    const double shift = *std::max_element(log_w.begin(), log_w.end());
    for (double& w : log_w) w -= shift;

    const double k_hat = pareto_smooth_log_weights(log_w);
    result.pointwise[i].pareto_k = k_hat;

    // elpd_i = log( sum_s w_s p_s / sum_s w_s ).
    std::vector<double> log_num(total_samples);
    for (std::size_t s = 0; s < total_samples; ++s) {
      log_num[s] = log_w[s] + log_lik_row[s];
    }
    result.pointwise[i].elpd =
        math::log_sum_exp(log_num) - math::log_sum_exp(log_w);
  });
  for (std::size_t i = 0; i < k; ++i) {
    const double k_hat = result.pointwise[i].pareto_k;
    if (std::isfinite(k_hat) && k_hat > kParetoKThreshold) {
      ++result.high_k_count;
    }
    result.elpd_loo += result.pointwise[i].elpd;
  }
  result.looic = -2.0 * result.elpd_loo;
  return result;
}

}  // namespace srm::core
