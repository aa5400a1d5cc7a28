// Univariate slice sampler (Neal 2003) with stepping-out and shrinkage.
//
// This is the workhorse JAGS uses for bounded real-valued nodes without a
// conjugate conditional; we use it for the detection-probability parameters
// (mu, theta, gamma, omega) and the negative-binomial shape alpha_0, whose
// full conditionals are log-concave-ish but nonstandard.
//
// Beside it, the elliptical slice move (Murray, Adams & MacKay 2010) moves
// a whole vector at once along an ellipse of a Gaussian reference, with no
// width to tune; the collapsed zeta-scan runs it once its kernel is frozen.
//
// The density is taken by support::function_ref: the sampler is called
// thousands of times per Gibbs scan with a fresh closure each time, and a
// std::function parameter would heap-allocate and type-erase every one of
// them. The closure only needs to live for the duration of the call, which
// is exactly what function_ref expresses.
#pragma once

#include <span>

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

/// Signature of a log-likelihood evaluation at a point of R^d.
using VectorLogDensityRef =
    support::function_ref<double(std::span<const double>)>;

/// An elliptical slice move's outcome: whether the state moved, and the log
/// likelihood at the final state.
struct EllipticalDraw {
  bool moved = false;
  double log_likelihood = 0.0;
};

/// One elliptical slice move targeting N(x; mean, L L^T) exp(log_likelihood)
/// from `x`, whose log likelihood `log_likelihood_x` must be finite. `factor`
/// holds the lower Cholesky factor L, row-major d x d; `scratch` holds 2d
/// doubles the move overwrites. The move draws nu = L z, sets the level
/// log y = log_likelihood_x + log U, and proposes
/// x' = mean + (x - mean) cos theta + nu sin theta with theta uniform on a
/// bracket that starts as [theta0 - 2 pi, theta0] and shrinks toward 0
/// after each rejection, until log_likelihood(x') > log y; `x` then holds
/// x'. After slice_sample's default `max_shrink` rejections it keeps `x`.
/// The proposal span passed to `log_likelihood` lives in `scratch`, and an
/// accepted x' is the last point it was called at. RNG use: d normals,
/// 2 uniforms, then one uniform per rejection.
EllipticalDraw elliptical_slice(random::Rng& rng, std::span<double> x,
                                double log_likelihood_x,
                                std::span<const double> mean,
                                std::span<const double> factor,
                                VectorLogDensityRef log_likelihood,
                                std::span<double> scratch);

}  // namespace srm::mcmc
