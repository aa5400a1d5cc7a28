// Variate samplers. All take the caller's Rng so streams stay explicit.
//
// Algorithms:
//  * normal       — Marsaglia polar method
//  * gamma        — Marsaglia–Tsang squeeze (with the a<1 boost)
//  * beta         — ratio of gammas
//  * poisson      — inversion for small mean, PTRS transformed rejection
//                   (Hörmann 1993) for large mean
//  * binomial     — inversion for small n*p, BTRS transformed rejection
//  * negative_binomial — gamma–Poisson mixture (valid for real alpha > 0)
//  * truncated_gamma   — inverse-CDF via the regularized incomplete gamma
//
// Each sampler is unit-tested against analytic moments and chi-square /
// Kolmogorov–Smirnov goodness-of-fit in tests/random/.
#pragma once

#include <cstdint>

#include "random/rng.hpp"

namespace srm::random {

/// Standard normal variate.
double sample_normal(Rng& rng);

/// Normal with the given mean and standard deviation (sd > 0).
double sample_normal(Rng& rng, double mean, double sd);

/// Gamma with shape > 0 and rate > 0 (mean = shape / rate).
double sample_gamma(Rng& rng, double shape, double rate);

/// Beta with parameters a, b > 0.
double sample_beta(Rng& rng, double a, double b);

/// Poisson with mean >= 0. Returns a count.
std::int64_t sample_poisson(Rng& rng, double mean);

/// Binomial with n >= 0 trials and success probability p in [0, 1].
std::int64_t sample_binomial(Rng& rng, std::int64_t n, double p);

/// Negative binomial with real shape alpha > 0 and success probability
/// beta in (0, 1): pmf C(k+alpha-1, k) beta^alpha (1-beta)^k, mean
/// alpha (1-beta)/beta.
std::int64_t sample_negative_binomial(Rng& rng, double alpha, double beta);

/// Gamma(shape, rate) truncated to (0, upper]. Uses inverse-CDF through the
/// regularized incomplete gamma, so it is exact (no rejection loops that
/// could stall when the truncation removes most of the mass). Where the
/// kept mass P(shape, rate * upper) is below DBL_MIN, down to exactly 0 in
/// double, the inversion runs on log P instead.
double sample_truncated_gamma(Rng& rng, double shape, double rate,
                              double upper);

}  // namespace srm::random
