#include "support/math.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "support/error.hpp"
#include "support/fp.hpp"

namespace srm::math {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = std::numeric_limits<double>::epsilon();

// Table of log(n!); filled on first use (thread-safe static init).
//
// The size is anchored to the data scale the samplers actually probe: the
// WAIC/LOO pointwise kernel evaluates log C(N - s_{i-1}, x_i) for every
// (draw, day), and N is bounded by s_k plus the lambda_max = 2000 hyperprior
// support — comfortably under 4096. With the table covering that range the
// kernel never reaches lgamma.
//
// Entries below the original 256-entry cutoff keep the running-sum
// recurrence (their historical values, relied on bit-for-bit by fixed-seed
// traces); entries above are exactly what the old lgamma fallback returned
// for them, so growing the table changes no result anywhere.
constexpr int kFactorialTableSize = 4096;
constexpr int kFactorialRecurrenceSize = 256;

const std::array<double, kFactorialTableSize>& log_factorial_table() {
  static const auto table = [] {
    std::array<double, kFactorialTableSize> t{};
    t[0] = 0.0;
    for (std::size_t n = 1; n < kFactorialRecurrenceSize; ++n) {
      t[n] = t[n - 1] + std::log(static_cast<double>(n));
    }
    for (std::size_t n = kFactorialRecurrenceSize; n < kFactorialTableSize;
         ++n) {
      t[n] = lgamma(static_cast<double>(n) + 1.0);
    }
    return t;
  }();
  return table;
}

// Iteration cap of the incomplete-gamma series and continued fraction.
// Near x ~ a the series needs about 8 sqrt(a) terms (106 at a = 137,
// 2462 at a = 1e5) and the continued fraction's need grows like sqrt(a)
// too, so a fixed cap fails large-a calls that converge fine.
int gamma_iteration_cap(double a) {
  return 1000 +
         static_cast<int>(std::min(std::floor(10.0 * std::sqrt(a)), 1e9));
}

// Lower incomplete gamma by series: P(a,x) = x^a e^-x / Gamma(a) *
// sum_{n>=0} x^n / (a(a+1)...(a+n)).
double gamma_p_series(double a, double x) {
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  const int cap = gamma_iteration_cap(a);
  for (int n = 0; n < cap; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * kEps) {
      return sum * std::exp(-x + a * std::log(x) - lgamma(a));
    }
  }
  throw NumericError("regularized_gamma_p: series failed to converge");
}

// Upper incomplete gamma by Lentz continued fraction.
double gamma_q_continued_fraction(double a, double x) {
  constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  const int cap = gamma_iteration_cap(a);
  for (int i = 1; i <= cap; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) {
      return std::exp(-x + a * std::log(x) - lgamma(a)) * h;
    }
  }
  throw NumericError("regularized_gamma_q: continued fraction failed");
}

// True where Q(a, x) < 2^-60 provably, so that 1 - Q rounds to exactly 1.
// For a >= 1 and x >= 2a, Gamma(a, x) <= x^a e^-x / (x - a + 1), and
// Stirling's lower bound lgamma(a) >= (a - 1/2) log a - a + log(2 pi)/2
// gives log Q <= a log(x/a) + log(a)/2 - x + a - log(x - a + 1)
// - log(2 pi)/2; -log(x - a + 1) <= -log 2 there, and +log 2 in its place
// leaves slack for the rounding of the bound itself.
bool upper_tail_rounds_away(double a, double x) {
  constexpr double kLog2 = 0.6931471805599453;
  constexpr double kHalfLog2Pi = 0.9189385332046728;
  if (a < 1.0 || x < 2.0 * a) return false;
  return a * std::log(x / a) + 0.5 * std::log(a) - x + a + kLog2 -
             kHalfLog2Pi <
         -60.0 * kLog2;
}

// Continued fraction for the incomplete beta (Lentz).
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 1000; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 10 * kEps) return h;
  }
  throw NumericError("regularized_beta: continued fraction failed");
}

}  // namespace

double log_factorial(std::int64_t n) {
  SRM_EXPECTS(n >= 0, "log_factorial requires n >= 0");
  if (n < kFactorialTableSize) {
    return log_factorial_table()[static_cast<std::size_t>(n)];
  }
  return lgamma(static_cast<double>(n) + 1.0);
}

double log_binomial(std::int64_t n, std::int64_t k) {
  SRM_EXPECTS(n >= 0 && k >= 0 && k <= n,
              "log_binomial requires 0 <= k <= n");
  if (n < kFactorialTableSize) {
    // 0 <= k <= n, so all three arguments hit the table: three loads and
    // two subtractions — the WAIC kernel's per-(draw, day) cost.
    const auto& table = log_factorial_table();
    return table[static_cast<std::size_t>(n)] -
           table[static_cast<std::size_t>(k)] -
           table[static_cast<std::size_t>(n - k)];
  }
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

double log_negbinomial_coefficient(double a, std::int64_t k) {
  SRM_EXPECTS(a > 0.0, "log_negbinomial_coefficient requires a > 0");
  SRM_EXPECTS(k >= 0, "log_negbinomial_coefficient requires k >= 0");
  if (k == 0) return 0.0;
  return lgamma(a + static_cast<double>(k)) - lgamma(a) -
         log_factorial(k);
}

double log_sum_exp(double a, double b) {
  if (a == -kInf) return b;
  if (b == -kInf) return a;
  const double m = std::max(a, b);
  return m + std::log1p(std::exp(std::min(a, b) - m));
}

double log_sum_exp(std::span<const double> values) {
  if (values.empty()) return -kInf;
  const double m = *std::max_element(values.begin(), values.end());
  if (m == -kInf) return -kInf;
  double sum = 0.0;
  for (const double v : values) sum += std::exp(v - m);
  return m + std::log(sum);
}

double regularized_gamma_p(double a, double x) {
  SRM_EXPECTS(a > 0.0, "regularized_gamma_p requires a > 0");
  SRM_EXPECTS(x >= 0.0, "regularized_gamma_p requires x >= 0");
  if (fp::is_zero(x)) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_gamma_q(double a, double x) {
  SRM_EXPECTS(a > 0.0, "regularized_gamma_q requires a > 0");
  SRM_EXPECTS(x >= 0.0, "regularized_gamma_q requires x >= 0");
  if (fp::is_zero(x)) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_continued_fraction(a, x);
}

double log_regularized_gamma_p(double a, double x) {
  SRM_EXPECTS(a > 0.0, "log_regularized_gamma_p requires a > 0");
  SRM_EXPECTS(x >= 0.0, "log_regularized_gamma_p requires x >= 0");
  if (fp::is_zero(x)) return -kInf;
  if (x >= a + 1.0) {
    // P is not small here; the direct value is accurate. Where the upper
    // tail rounds away, that value is log(1) = 0 and the continued
    // fraction is skipped.
    if (upper_tail_rounds_away(a, x)) return 0.0;
    return std::log(regularized_gamma_p(a, x));
  }
  // Series in log form: P = x^a e^{-x} / Gamma(a+1) * [1 + sum_{n>=1}
  // x^n / ((a+1)...(a+n))], with the bracket in [1, e^x].
  double term = 1.0;
  double rest = 0.0;
  double ap = a;
  const int cap = gamma_iteration_cap(a);
  for (int n = 0; n < cap; ++n) {
    ap += 1.0;
    term *= x / ap;
    rest += term;
    if (term < rest * kEps + kEps) break;
  }
  return a * std::log(x) - x - lgamma(a + 1.0) + std::log1p(rest);
}

double inverse_regularized_gamma_p(double a, double p) {
  SRM_EXPECTS(a > 0.0, "inverse_regularized_gamma_p requires a > 0");
  SRM_EXPECTS(p >= 0.0 && p < 1.0,
              "inverse_regularized_gamma_p requires p in [0, 1)");
  if (fp::is_zero(p)) return 0.0;

  // Initial guess (Abramowitz & Stegun 26.4.17 via the Wilson-Hilferty
  // normal approximation), then Newton with bisection safeguard.
  const double g = lgamma(a);
  double x;
  if (a > 1.0) {
    const double z = normal_quantile(p);
    const double t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
    x = a * t * t * t;
    if (x <= 0.0) x = 1e-8;
  } else {
    const double t = 1.0 - a * (0.253 + a * 0.12);
    if (p < t) {
      x = std::pow(p / t, 1.0 / a);
    } else {
      x = 1.0 - std::log(1.0 - (p - t) / (1.0 - t));
    }
  }

  double lo = 0.0;
  double hi = kInf;
  for (int iter = 0; iter < 200; ++iter) {
    const double f = regularized_gamma_p(a, x) - p;
    if (f > 0.0) {
      hi = x;
    } else {
      lo = x;
    }
    if (std::abs(f) < 1e-14) break;
    // pdf of Gamma(a,1) at x
    const double dfdx = std::exp(-x + (a - 1.0) * std::log(x) - g);
    double next = (dfdx > 0.0) ? x - f / dfdx : x;
    if (!(next > lo && (hi == kInf || next < hi))) {
      next = (hi == kInf) ? 2.0 * x + 1.0 : 0.5 * (lo + hi);
    }
    if (std::abs(next - x) < 1e-14 * (1.0 + x)) {
      x = next;
      break;
    }
    x = next;
  }
  return x;
}

double regularized_beta(double a, double b, double x) {
  SRM_EXPECTS(a > 0.0 && b > 0.0, "regularized_beta requires a, b > 0");
  SRM_EXPECTS(x >= 0.0 && x <= 1.0, "regularized_beta requires x in [0, 1]");
  if (fp::is_zero(x)) return 0.0;
  if (fp::is_one(x)) return 1.0;
  const double log_front = a * std::log(x) + b * std::log1p(-x) - log_beta(a, b);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(log_front) * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - std::exp(log_front) * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double normal_quantile(double p) {
  SRM_EXPECTS(p > 0.0 && p < 1.0, "normal_quantile requires p in (0, 1)");
  // Acklam's rational approximation (relative error < 1.15e-9)...
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // ...polished with one Halley step to full double precision.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double log_beta(double a, double b) {
  SRM_EXPECTS(a > 0.0 && b > 0.0, "log_beta requires a, b > 0");
  return lgamma(a) + lgamma(b) - lgamma(a + b);
}

}  // namespace srm::math
