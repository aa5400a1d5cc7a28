// Univariate slice sampler (Neal 2003) with stepping-out and shrinkage.
//
// This is the workhorse JAGS uses for bounded real-valued nodes without a
// conjugate conditional; we use it for the detection-probability parameters
// (mu, theta, gamma, omega) and the negative-binomial shape alpha_0, whose
// full conditionals are log-concave-ish but nonstandard.
//
// The density is taken by support::function_ref: the sampler is called
// thousands of times per Gibbs scan with a fresh closure each time, and a
// std::function parameter would heap-allocate and type-erase every one of
// them. The closure only needs to live for the duration of the call, which
// is exactly what function_ref expresses.
#pragma once

#include "random/rng.hpp"
#include "support/function_ref.hpp"

namespace srm::mcmc {

/// Signature of a log target density evaluation.
using LogDensityRef = support::function_ref<double(double)>;

struct SliceOptions {
  double initial_width = 1.0;  ///< w: initial bracket width
  int max_step_out = 50;       ///< m: cap on stepping-out expansions
  double lower = -1e300;       ///< hard support bound (inclusive bracket clip)
  double upper = 1e300;
  int max_shrink = 200;        ///< safety cap on shrinkage iterations
};

/// A slice transition's new state and the log density there.
struct SliceDraw {
  double x = 0.0;
  double log_density = 0.0;
};

/// One slice-sampling transition from `x0` targeting exp(log_density).
///
/// `log_density` may return -inf outside the support; `x0` must have finite
/// density. The invariant distribution of the transition is exactly the
/// target, so chaining calls yields a correct MCMC kernel.
///
/// The density is never evaluated at a bracket endpoint that sits exactly
/// on a support bound: the bound is known to terminate stepping-out, so the
/// evaluation would be wasted (and on the bounded conditionals used here it
/// would just return -inf).
double slice_sample(random::Rng& rng, double x0, LogDensityRef log_density,
                    const SliceOptions& options);

/// The same transition for a caller that already knows the log density at
/// `x0` (`log_density_x0`, finite): `log_density` is never called at x0, and
/// the density at the returned point is reported with it. From the same
/// RNG state it draws exactly what the form above draws, so a Gibbs scan
/// can chain coordinate moves without re-evaluating each starting point.
SliceDraw slice_sample(random::Rng& rng, double x0, double log_density_x0,
                       LogDensityRef log_density, const SliceOptions& options);

}  // namespace srm::mcmc
