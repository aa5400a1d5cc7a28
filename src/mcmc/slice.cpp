#include "mcmc/slice.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "random/samplers.hpp"
#include "support/error.hpp"

namespace srm::mcmc {

namespace {

void check_options(double x0, const SliceOptions& options) {
  SRM_EXPECTS(options.initial_width > 0.0,
              "slice_sample requires a positive initial width");
  SRM_EXPECTS(options.lower < options.upper,
              "slice_sample requires lower < upper");
  SRM_EXPECTS(x0 >= options.lower && x0 <= options.upper,
              "slice_sample requires x0 inside the support");
}

}  // namespace

double slice_sample(random::Rng& rng, double x0, LogDensityRef log_density,
                    const SliceOptions& options) {
  check_options(x0, options);
  return slice_sample(rng, x0, log_density(x0), log_density, options).x;
}

SliceDraw slice_sample(random::Rng& rng, double x0, double log_density_x0,
                       LogDensityRef log_density,
                       const SliceOptions& options) {
  check_options(x0, options);
  const double f0 = log_density_x0;
  SRM_EXPECTS(std::isfinite(f0),
              "slice_sample requires finite density at the current point");

  // Vertical slice: y = f0 + log U, U ~ Uniform(0,1).
  const double log_y = f0 + std::log(rng.uniform_open());

  // Stepping out, with random placement of the initial bracket around x0.
  const double w = options.initial_width;
  double left = x0 - w * rng.uniform();
  double right = left + w;
  left = std::max(left, options.lower);
  right = std::min(right, options.upper);

  // An endpoint clamped to a support bound cannot step out any further, so
  // the bound check comes first: the density is never evaluated at a bound,
  // where bounded conditionals typically return -inf anyway.
  int j = options.max_step_out;
  int k = options.max_step_out;
  while (left > options.lower && j-- > 0 && log_density(left) > log_y) {
    left = std::max(left - w, options.lower);
  }
  while (right < options.upper && k-- > 0 && log_density(right) > log_y) {
    right = std::min(right + w, options.upper);
  }

  // Shrinkage: sample in [left, right], shrink toward x0 on rejection.
  for (int iter = 0; iter < options.max_shrink; ++iter) {
    const double x1 = left + (right - left) * rng.uniform_open();
    const double f1 = log_density(x1);
    if (f1 > log_y) return {x1, f1};
    if (x1 < x0) {
      left = x1;
    } else {
      right = x1;
    }
    if (right - left < 1e-300) break;
  }
  // The bracket collapsed without acceptance — numerically possible when the
  // density is a spike; keeping the current state preserves correctness
  // (a no-op move is a valid MCMC transition).
  return {x0, f0};
}

EllipticalDraw elliptical_slice(random::Rng& rng, std::span<double> x,
                                double log_likelihood_x,
                                std::span<const double> mean,
                                std::span<const double> factor,
                                VectorLogDensityRef log_likelihood,
                                std::span<double> scratch) {
  const std::size_t d = x.size();
  SRM_EXPECTS(mean.size() == d && factor.size() == d * d &&
                  scratch.size() >= 2 * d,
              "elliptical_slice requires a d-vector mean, a d x d factor "
              "and 2d scratch values");
  SRM_EXPECTS(std::isfinite(log_likelihood_x),
              "elliptical_slice requires finite log likelihood at x");
  const auto nu = scratch.first(d);
  const auto proposal = scratch.subspan(d, d);

  // nu = L z, computed in place from the last row up: row i reads z_0..z_i.
  for (std::size_t i = 0; i < d; ++i) nu[i] = random::sample_normal(rng);
  for (std::size_t i = d; i-- > 0;) {
    double sum = 0.0;
    for (std::size_t k = 0; k <= i; ++k) sum += factor[i * d + k] * nu[k];
    nu[i] = sum;
  }
  const double log_y = log_likelihood_x + std::log(rng.uniform_open());
  constexpr double kTwoPi = 2.0 * std::numbers::pi;
  double theta = rng.uniform(0.0, kTwoPi);
  double left = theta - kTwoPi;
  double right = theta;
  for (int iter = 0; iter < SliceOptions{}.max_shrink; ++iter) {
    const double c = std::cos(theta);
    const double s = std::sin(theta);
    for (std::size_t i = 0; i < d; ++i) {
      proposal[i] = mean[i] + (x[i] - mean[i]) * c + nu[i] * s;
    }
    const double f = log_likelihood(proposal);
    if (f > log_y) {
      std::copy(proposal.begin(), proposal.end(), x.begin());
      return {true, f};
    }
    // Shrink toward theta = 0, the current state, which is on the slice.
    (theta < 0.0 ? left : right) = theta;
    theta = rng.uniform(left, right);
  }
  return {false, log_likelihood_x};
}

}  // namespace srm::mcmc
