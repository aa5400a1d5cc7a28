// Log-domain special functions used throughout the library.
//
// Everything here is self-contained (no GSL/Boost): series and continued
// fraction expansions follow the classical numerical-recipes formulations,
// with accuracy targets of ~1e-12 relative error in the regions the library
// exercises (they are unit-tested against high-precision reference values in
// tests/support/math_test.cpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

namespace srm::math {

/// Thread-safe log |Gamma(x)|. glibc's lgamma writes the global `signgam`,
/// which is a data race once Gibbs chains run concurrently on the runtime
/// pool; the _r variant keeps the sign in a local. Library code must call
/// this instead of std::lgamma.
inline double lgamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// Natural log of n! — exact table lookup for n < 4096 (covering the
/// initial-bug-content range the samplers probe under the default
/// hyperpriors), lgamma otherwise.
double log_factorial(std::int64_t n);

/// Natural log of the binomial coefficient C(n, k) for integer 0 <= k <= n.
/// Fast path: three table lookups (no lgamma) whenever n is inside the
/// log_factorial table — true for every WAIC/LOO pointwise evaluation.
double log_binomial(std::int64_t n, std::int64_t k);

/// Natural log of the generalized binomial coefficient
/// C(a + k - 1, k) = Gamma(a + k) / (Gamma(a) k!) for real a > 0, integer
/// k >= 0 — the combinatorial factor of the negative binomial pmf.
double log_negbinomial_coefficient(double a, std::int64_t k);

/// log(exp(a) + exp(b)) without overflow; handles -inf operands.
double log_sum_exp(double a, double b);

/// log(sum_i exp(v_i)) without overflow; returns -inf for an empty span.
double log_sum_exp(std::span<const double> values);

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// a > 0, x >= 0. Series expansion for x < a + 1, continued fraction
/// otherwise.
double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/// log P(a, x), accurate even when P underflows double precision (x << a),
/// where the plain log(regularized_gamma_p(...)) would return -inf.
double log_regularized_gamma_p(double a, double x);

/// Inverse of P(a, .): returns x with P(a, x) = p, for p in [0, 1).
/// Used for inverse-CDF sampling of (truncated) gamma variates.
double inverse_regularized_gamma_p(double a, double p);

/// Regularized incomplete beta I_x(a, b), a, b > 0, x in [0, 1].
double regularized_beta(double a, double b, double x);

/// Standard normal CDF Phi(z).
double normal_cdf(double z);

/// Standard normal quantile Phi^{-1}(p), p in (0, 1) (Acklam's algorithm
/// polished with one Halley step).
double normal_quantile(double p);

/// log Beta(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b).
double log_beta(double a, double b);

}  // namespace srm::math
