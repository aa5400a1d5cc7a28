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

#include <cstdint>
#include <span>
#include <vector>

#include "data/bug_count_data.hpp"

namespace srm::core {

/// log P(X_i = x_i | N, p) for 1-based day i — the pointwise term Eq (1),
/// used by both the likelihood and the WAIC computation.
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
