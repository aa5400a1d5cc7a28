// Metropolis-Hastings helpers shared by the Gibbs conditionals.
//
// These exist so the accept/reject mechanics live in one place and the RNG
// call discipline is explicit: a proposal callback draws whatever variates
// it needs, then exactly one uniform is consumed for the accept decision.
// Callbacks are taken by support::function_ref — they are stack closures
// that live only for the duration of the call, and must not allocate.
#pragma once

#include <cmath>

#include "random/rng.hpp"
#include "support/function_ref.hpp"

namespace srm::mcmc {

/// One Metropolis accept decision for a log acceptance ratio.
/// Consumes exactly one uniform variate from `rng`.
inline bool metropolis_accept(random::Rng& rng, double log_ratio) {
  return std::log(rng.uniform_open()) < log_ratio;
}

/// Runs `attempts` independence-Metropolis moves with proposal density q
/// against target density pi.
///
/// Per attempt, `propose` draws a candidate y (using `rng`) and returns its
/// log weight log pi(y) - log q(y), or just log pi(y) where q is uniform
/// on the target's support and cancels (e.g. uniform-box proposals under a
/// uniform prior). The move accepts with probability
/// min(1, pi(y) q(x) / (pi(x) q(y))): the weight ratio against
/// `current_log_weight`, the current state x's weight. On acceptance
/// `commit` installs the candidate into the caller's state. Returns the
/// log weight of the final state.
///
/// RNG call order per attempt is: proposal draws, then one accept uniform —
/// the same order as the hand-written loops this replaces, so fixed-seed
/// traces are unchanged.
inline double independence_metropolis(
    random::Rng& rng, int attempts, double current_log_weight,
    support::function_ref<double(random::Rng&)> propose,
    support::function_ref<void()> commit) {
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const double proposed = propose(rng);
    if (metropolis_accept(rng, proposed - current_log_weight)) {
      commit();
      current_log_weight = proposed;
    }
  }
  return current_log_weight;
}

}  // namespace srm::mcmc
