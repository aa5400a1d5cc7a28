// Geweke convergence diagnostic (Eq 30 of the paper, with the obvious typo
// fixed): Z = (mean of the first n_A samples - mean of the last n_B samples)
// divided by sqrt of the SUM of their variance estimates. The variances use
// a spectral-density-at-zero estimate (Bartlett-windowed autocovariances),
// matching coda/JAGS. |Z| < 1.96 is taken as evidence of stationarity.
#pragma once

#include <cstddef>
#include <span>

namespace srm::diagnostics {

struct GewekeResult {
  double z = 0.0;
  double first_mean = 0.0;
  double last_mean = 0.0;
  double first_variance = 0.0;  ///< spectral variance of the first-window mean
  double last_variance = 0.0;
};

/// Draws each Geweke window must hold for its spectral variance.
inline constexpr std::size_t kGewekeMinWindow = 4;

/// `first_fraction` / `last_fraction` follow Geweke's defaults (0.1, 0.5).
/// Both windows must hold kGewekeMinWindow draws: 40 samples at the
/// defaults. Throws InvalidArgument otherwise.
GewekeResult geweke(std::span<const double> chain,
                    double first_fraction = 0.1, double last_fraction = 0.5);

/// The statistic from pre-extracted windows (>= kGewekeMinWindow samples
/// each). geweke() delegates here after slicing the chain; the streaming
/// accumulator feeds the same windows it collected online, so both paths
/// are bit-identical.
GewekeResult geweke_from_windows(std::span<const double> first,
                                 std::span<const double> last);

/// The standard-normal 5% two-sided criterion used in the paper.
inline constexpr double kGewekeThreshold = 1.96;

/// Spectral density at frequency zero of `values`, estimated with a
/// Bartlett (triangular) lag window of the given half-width; divides by n
/// to estimate Var(sample mean). Exposed for testing.
double spectral_variance_of_mean(std::span<const double> values);

}  // namespace srm::diagnostics
