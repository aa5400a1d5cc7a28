// Derivative-free optimization: Nelder-Mead simplex with box constraints
// (rejection by -inf objective outside the box). Used by the
// maximum-likelihood baseline.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace srm::mle {

/// Objective to MAXIMIZE. May return -inf outside the feasible region.
using Objective = std::function<double(std::span<const double>)>;

struct NelderMeadOptions {
  double initial_step = 0.1;      ///< relative simplex edge length
  double tolerance = 1e-10;       ///< simplex value-spread stop criterion
  std::size_t max_iterations = 2000;
};

struct OptimizeResult {
  std::vector<double> argmax;
  double value = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Maximizes `objective` starting from `start` with per-dimension bounds.
/// `start` must be strictly feasible.
OptimizeResult nelder_mead(const Objective& objective,
                           std::span<const double> start,
                           std::span<const double> lower,
                           std::span<const double> upper,
                           const NelderMeadOptions& options = {});

}  // namespace srm::mle
