#include "random/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/fp.hpp"
#include "support/math.hpp"

namespace srm::random {

namespace {

// x in (0, x_upper] with log P(a, x) = log_p, for log_p <= log P(a, x_upper):
// Newton on t = log x inside a bracket. P(a, x) <= x^a / Gamma(a + 1)
// places the lower end, x_upper the upper one, and the root sits close
// below x_upper wherever the cap underflows, so Newton starts there.
double inverse_log_regularized_gamma_p(double a, double log_p,
                                       double x_upper) {
  const double log_gamma_a = math::lgamma(a);
  double hi = std::log(x_upper);
  double lo = std::min((log_p + math::lgamma(a + 1.0)) / a, hi);
  double t = hi;
  for (int iter = 0; iter < 200; ++iter) {
    const double x = std::exp(t);
    const double log_px = math::log_regularized_gamma_p(a, x);
    const double f = log_px - log_p;
    if (f > 0.0) {
      hi = t;
    } else {
      lo = t;
    }
    // d/dt log P(a, e^t) = x^a e^{-x} / (Gamma(a) P(a, x)).
    const double slope = std::exp(a * t - x - log_gamma_a - log_px);
    double next = t - f / slope;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::abs(next - t) <= 1e-15 * (1.0 + std::abs(t))) return std::exp(next);
    t = next;
  }
  return std::exp(t);
}

// Poisson by multiplicative inversion — O(mean), good for mean <~ 30.
std::int64_t poisson_inversion(Rng& rng, double mean) {
  const double threshold = std::exp(-mean);
  std::int64_t k = 0;
  double product = rng.uniform_open();
  while (product > threshold) {
    ++k;
    product *= rng.uniform_open();
  }
  return k;
}

// Poisson by the PTRS transformed-rejection method (Hörmann 1993),
// valid for mean >= 10.
std::int64_t poisson_ptrs(Rng& rng, double mean) {
  const double log_mean = std::log(mean);
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    const double u = rng.uniform_open() - 0.5;
    const double v = rng.uniform_open();
    const double us = 0.5 - std::abs(u);
    const auto k = static_cast<std::int64_t>(
        std::floor((2.0 * a / us + b) * u + mean + 0.43));
    if (us >= 0.07 && v <= v_r) return k;
    if (k < 0 || (us < 0.013 && v > us)) continue;
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        -mean + static_cast<double>(k) * log_mean - math::log_factorial(k)) {
      return k;
    }
  }
}

// Binomial by inversion — O(n p), used for small expected counts.
std::int64_t binomial_inversion(Rng& rng, std::int64_t n, double p) {
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = rng.uniform_open();
  std::int64_t k = 0;
  while (u > r) {
    u -= r;
    ++k;
    if (k > n) {  // numerical tail underflow; clamp
      return n;
    }
    r *= a / static_cast<double>(k) - s;
  }
  return k;
}

// Binomial via the BTRS transformed-rejection method (Hörmann 1993),
// requires n*p >= 10 and p <= 0.5.
std::int64_t binomial_btrs(Rng& rng, std::int64_t n, double p) {
  const double nd = static_cast<double>(n);
  const double q = 1.0 - p;
  const double spq = std::sqrt(nd * p * q);
  const double b = 1.15 + 2.53 * spq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * spq;
  const double lpq = std::log(p / q);
  const double m = std::floor((nd + 1) * p);
  const double h = math::log_factorial(static_cast<std::int64_t>(m)) +
                   math::log_factorial(static_cast<std::int64_t>(nd - m));
  for (;;) {
    const double u = rng.uniform_open() - 0.5;
    const double v = rng.uniform_open();
    const double us = 0.5 - std::abs(u);
    const double kd = std::floor((2.0 * a / us + b) * u + c);
    if (kd < 0.0 || kd > nd) continue;
    const auto k = static_cast<std::int64_t>(kd);
    if (us >= 0.07 && v <= v_r) return k;
    const double f =
        h - math::log_factorial(k) -
        math::log_factorial(static_cast<std::int64_t>(nd) - k) +
        (kd - m) * lpq;
    if (std::log(v * alpha / (a / (us * us) + b)) <= f) return k;
  }
}

}  // namespace

double sample_normal(Rng& rng) {
  // Marsaglia polar method; the spare variate is intentionally discarded to
  // keep the sampler stateless (reproducibility beats a 2x constant).
  for (;;) {
    const double u = 2.0 * rng.uniform_open() - 1.0;
    const double v = 2.0 * rng.uniform_open() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Rng& rng, double mean, double sd) {
  SRM_EXPECTS(sd > 0.0, "sample_normal requires sd > 0");
  return mean + sd * sample_normal(rng);
}

double sample_gamma(Rng& rng, double shape, double rate) {
  SRM_EXPECTS(shape > 0.0, "sample_gamma requires shape > 0");
  SRM_EXPECTS(rate > 0.0, "sample_gamma requires rate > 0");
  if (shape < 1.0) {
    // Boost: X_a = X_{a+1} * U^{1/a}.
    const double u = rng.uniform_open();
    return sample_gamma(rng, shape + 1.0, rate) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia–Tsang.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = sample_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.uniform_open();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v / rate;
    if (std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return d * v / rate;
    }
  }
}

double sample_beta(Rng& rng, double a, double b) {
  SRM_EXPECTS(a > 0.0 && b > 0.0, "sample_beta requires a, b > 0");
  const double x = sample_gamma(rng, a, 1.0);
  const double y = sample_gamma(rng, b, 1.0);
  const double s = x + y;
  if (s <= 0.0) return 0.5;  // both underflowed; a,b tiny — return midpoint
  return x / s;
}

std::int64_t sample_poisson(Rng& rng, double mean) {
  SRM_EXPECTS(mean >= 0.0 && std::isfinite(mean),
              "sample_poisson requires finite mean >= 0");
  if (fp::is_zero(mean)) return 0;
  if (mean < 30.0) return poisson_inversion(rng, mean);
  return poisson_ptrs(rng, mean);
}

std::int64_t sample_binomial(Rng& rng, std::int64_t n, double p) {
  SRM_EXPECTS(n >= 0, "sample_binomial requires n >= 0");
  SRM_EXPECTS(p >= 0.0 && p <= 1.0, "sample_binomial requires p in [0, 1]");
  if (n == 0 || fp::is_zero(p)) return 0;
  if (fp::is_one(p)) return n;
  if (p > 0.5) return n - sample_binomial(rng, n, 1.0 - p);
  if (static_cast<double>(n) * p < 10.0) return binomial_inversion(rng, n, p);
  return binomial_btrs(rng, n, p);
}

std::int64_t sample_negative_binomial(Rng& rng, double alpha, double beta) {
  SRM_EXPECTS(alpha > 0.0, "sample_negative_binomial requires alpha > 0");
  SRM_EXPECTS(beta > 0.0 && beta < 1.0,
              "sample_negative_binomial requires beta in (0, 1)");
  // Gamma–Poisson mixture: K | L ~ Poisson(L), L ~ Gamma(alpha, beta/(1-beta)).
  const double mixing = sample_gamma(rng, alpha, beta / (1.0 - beta));
  return sample_poisson(rng, mixing);
}

double sample_truncated_gamma(Rng& rng, double shape, double rate,
                              double upper) {
  SRM_EXPECTS(shape > 0.0, "sample_truncated_gamma requires shape > 0");
  SRM_EXPECTS(rate > 0.0, "sample_truncated_gamma requires rate > 0");
  SRM_EXPECTS(upper > 0.0, "sample_truncated_gamma requires upper > 0");
  const double cap = math::regularized_gamma_p(shape, rate * upper);
  if (cap >= std::numeric_limits<double>::min()) {
    const double u = rng.uniform_open() * cap;
    const double x = math::inverse_regularized_gamma_p(shape, u) / rate;
    return std::min(x, upper);
  }
  // The cap is subnormal or 0 (deep left tail, shapes in the thousands):
  // u * cap has lost its digits, so invert in the log domain instead.
  const double log_target = std::log(rng.uniform_open()) +
                            math::log_regularized_gamma_p(shape, rate * upper);
  const double x =
      inverse_log_regularized_gamma_p(shape, log_target, rate * upper) / rate;
  return std::min(x, upper);
}

}  // namespace srm::random

namespace srm::random {

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  SRM_EXPECTS(n > 0, "uniform_index requires n > 0");
  // Lemire's nearly-divisionless method with rejection of the biased zone.
  const std::uint64_t threshold = (~n + 1) % n;  // 2^64 mod n
  for (;;) {
    const std::uint64_t x = next_u64();
    // 128-bit multiply-high via two 64x64 partials.
    const std::uint64_t x_lo = x & 0xffffffffULL;
    const std::uint64_t x_hi = x >> 32;
    const std::uint64_t n_lo = n & 0xffffffffULL;
    const std::uint64_t n_hi = n >> 32;
    const std::uint64_t lo_lo = x_lo * n_lo;
    const std::uint64_t hi_lo = x_hi * n_lo;
    const std::uint64_t lo_hi = x_lo * n_hi;
    const std::uint64_t hi_hi = x_hi * n_hi;
    const std::uint64_t cross =
        (lo_lo >> 32) + (hi_lo & 0xffffffffULL) + lo_hi;
    const std::uint64_t product_lo = (cross << 32) | (lo_lo & 0xffffffffULL);
    const std::uint64_t product_hi = hi_hi + (hi_lo >> 32) + (cross >> 32);
    if (product_lo >= threshold) return product_hi;
  }
}

}  // namespace srm::random
