// The discrete-time SRM likelihood of Section 2.1.
//
// Eq (1): X_i | (N - s_{i-1} remaining, p_i) ~ Binomial(N - s_{i-1}, p_i).
// Eq (2): the joint pmf factorizes over testing days; its dependence on N is
//         N! / (N - s_k)! * prod_i q_i^{N - s_i}.
//
// Everything is computed in the log domain; -inf is returned for impossible
// configurations (e.g. N < s_k) rather than throwing, because the Gibbs
// conditionals legitimately probe the support boundary.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "data/bug_count_data.hpp"
#include "support/math.hpp"

namespace srm::core {

/// Eq (1) for one day with `remaining` = N - s_{i-1} bugs left and `found`
/// = x_i of them detected: log C(remaining, found) + found log p +
/// (remaining - found) log_q, where log_q = log(1 - p) is -inf for p = 1.
/// -inf where the day is impossible; log p is taken only when found > 0.
/// Inline: the WAIC row calls it for every (draw, day).
// srm-lint: allow(expects) — total domain: an impossible day is -inf
inline double log_day_likelihood(std::int64_t remaining, std::int64_t found,
                                 double p, double log_q) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  if (remaining < found || found < 0) return kNegInf;
  if (p <= 0.0) return found == 0 ? 0.0 : kNegInf;
  // Certain detection: every remaining bug is found today.
  if (log_q == kNegInf) return found == remaining ? 0.0 : kNegInf;
  if (found == 0) return static_cast<double>(remaining) * log_q;
  return math::log_binomial(remaining, found) +
         static_cast<double>(found) * std::log(p) +
         static_cast<double>(remaining - found) * log_q;
}

/// log P(X_i = x_i | N, p) for 1-based day i — the pointwise term Eq (1)
/// that log_likelihood sums, with log q_i = log1p(-p_i). The WAIC row
/// (BayesianSrm::pointwise_row) takes log q_i from the model's stable
/// log-survival channel instead.
double log_pointwise_likelihood(const data::BugCountData& data,
                                std::size_t day, std::int64_t initial_bugs,
                                std::span<const double> probabilities);

/// log of Eq (2): joint log-likelihood of the whole series given the
/// initial bug content N and the day-detection probabilities p_1..p_k.
/// Returns -inf when N < s_k or when any needed probability is degenerate.
double log_likelihood(const data::BugCountData& data,
                      std::int64_t initial_bugs,
                      std::span<const double> probabilities);

/// The N-dependent part of Eq (2) only:
///   log [ N! / (N - s_k)! ] + N * sum_i log q_i   (additive constants in N
/// dropped). This is what the Gibbs conditionals of N and of the
/// hyperparameters need; it is cheaper than the full likelihood.
double log_likelihood_n_kernel(const data::BugCountData& data,
                               std::int64_t initial_bugs,
                               std::span<const double> probabilities);

/// The zeta-dependent part of Eq (2) for fixed N:
///   sum_i [ x_i log p_i + (N - s_i) log q_i ].
/// Used by the slice-sampling conditional of the detection parameters.
double log_likelihood_zeta_kernel(const data::BugCountData& data,
                                  std::int64_t initial_bugs,
                                  std::span<const double> probabilities);

/// Overload taking precomputed stable log q_i values (from
/// DetectionModel::log_survivals_into) — required for power-form hazards
/// whose q_i underflow double precision; see that function.
double log_likelihood_zeta_kernel(const data::BugCountData& data,
                                  std::int64_t initial_bugs,
                                  std::span<const double> probabilities,
                                  std::span<const double> log_survivals);

/// The zeta-dependent factor of Eq (2) with the residual count marginalized
/// out (shared by both priors' collapsed Gibbs conditionals):
///   sum_i [ x_i log p_i + (s_k - s_i) log q_i ].
/// Derivation: summing the joint over R = N - s_k >= 0 leaves
/// prod_i p_i^{x_i} q_i^{s_k - s_i} times a prior-specific factor of
/// Q = prod q_i (e^{lambda0 Q} for the Poisson prior,
/// (1-(1-beta0)Q)^{-(s_k+alpha0)} for the negative binomial prior).
double log_likelihood_collapsed_base(const data::BugCountData& data,
                                     std::span<const double> probabilities);

/// Overload taking precomputed stable log q_i values.
double log_likelihood_collapsed_base(const data::BugCountData& data,
                                     std::span<const double> probabilities,
                                     std::span<const double> log_survivals);

/// sum_i log(1 - p_i); -inf if any p_i = 1.
double log_survival_product(std::span<const double> probabilities);

/// prod_i (1 - p_i) — the survival factor that drives both conjugate
/// posteriors (Propositions 1 and 2). Computed in the log domain.
double survival_product(std::span<const double> probabilities);

}  // namespace srm::core
