// PSIS-LOO: Pareto-smoothed importance-sampling leave-one-out
// cross-validation (Vehtari, Gelman & Gabry 2017) — the modern companion
// of the WAIC the paper uses for model selection (Watanabe 2010 proves
// their asymptotic equivalence; this module lets users check the agreement
// on finite data).
//
// For each data point i the LOO predictive density is estimated by
// importance sampling from the full posterior with ratios
// r_s = 1 / p(x_i | omega_s); the largest 20% of the ratios are replaced by
// quantiles of a generalized Pareto fit (tail smoothing), and the fitted
// shape k-hat per point diagnoses the estimate's reliability (k < 0.7 is
// the standard "ok" threshold).
#pragma once

#include <vector>

#include "support/matrix.hpp"

namespace srm::core {

struct LooPointwise {
  double elpd = 0.0;      ///< log LOO predictive density of point i
  double pareto_k = 0.0;  ///< GPD shape diagnostic for point i
};

struct LooResult {
  double elpd_loo = 0.0;  ///< sum of pointwise elpd (higher = better)
  double looic = 0.0;     ///< -2 elpd_loo, comparable to the paper's WAIC scale
  std::vector<LooPointwise> pointwise;
  std::size_t high_k_count = 0;  ///< points with k-hat > 0.7
};

/// The k-hat reliability threshold of Vehtari et al.
inline constexpr double kParetoKThreshold = 0.7;

/// PSIS-LOO from a pointwise log-likelihood matrix (rows = data points,
/// columns = draws), as retained by a keep_matrix StreamingScorer.
LooResult compute_psis_loo_from_matrix(const support::Matrix& log_lik);

/// Pareto-smooths a vector of raw log importance ratios in place and
/// returns the fitted GPD shape (NaN when the tail is too short to fit).
/// Exposed for testing.
double pareto_smooth_log_weights(std::vector<double>& log_weights);

}  // namespace srm::core
