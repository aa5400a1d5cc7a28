// WAIC — the widely applicable information criterion (Watanabe 2010), the
// paper's model-selection tool (Section 4.1, Eqs 23-25):
//
//   WAIC = T_k + V_k / k
//   T_k  = -(1/k) sum_i log p*(x_i)        (learning loss; p* = posterior
//                                           predictive, estimated by the
//                                           sample mean of p(x_i | omega_s))
//   V_k  = sum_i Var_omega[log p(x_i | omega)]  (functional variance)
//
// Smaller is better. The expectations over omega are computed from the
// retained Gibbs samples by core::WaicAccumulator, fed in-scan by
// core::StreamingScorer (core/streaming.hpp).
#pragma once

#include <cstddef>

namespace srm::core {

struct WaicResult {
  /// WAIC on the deviance scale, 2k (T_k + V_k / k) = -2 sum_i log p*(x_i)
  /// + 2 V_k. This is the scale of the paper's Table I: Eq (23) as printed
  /// is an average (O(1) for any k), while the tabulated values grow
  /// linearly with the observation window and sit near 2k times the average
  /// — e.g. 364 at 96 days is 1.9 per point after dividing by 2k.
  double waic = 0.0;
  /// Eq (23) literally: T_k + V_k / k.
  double waic_per_point = 0.0;
  double learning_loss = 0.0;       ///< T_k
  double functional_variance = 0.0; ///< V_k
  std::size_t data_points = 0;      ///< k
  std::size_t samples = 0;          ///< posterior draws used
};

}  // namespace srm::core
