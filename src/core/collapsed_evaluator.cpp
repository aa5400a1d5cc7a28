#include "core/collapsed_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "core/likelihood.hpp"

namespace srm::core {

namespace {

constexpr double kLn2 = std::numbers::ln2;
// A factor raised to a count above this adds count * log(factor) directly:
// a day with hundreds of bugs costs one log, not hundreds of multiplications.
constexpr double kRepeatLimit = 4.0;
// Below 2^-kTinyExponent a product's value moves into its binary exponent.
constexpr int kTinyExponent = 500;
constexpr double kTiny = 0x1p-500;
constexpr double kUntiny = 0x1p500;
// A factor at least this large keeps its kRepeatLimit-th power normal.
constexpr double kSmallPowerFloor = 0x1p-125;
// model2 takes t_i = i^(log mu) mu^(1 - gamma) from day powers only while
// neither exponent passes this, so neither factor leaves the normal range.
constexpr double kMaxPowerExponent = 700.0;

// A product of factors in [0, 1], logged once (DESIGN.md, "Collapsed
// evaluator"). While its value is at least 1/2 it also carries the
// complement 1 - value, grown as 1 - ab = (1 - a) + a (1 - b), a sum of
// non-negative terms, so the log keeps its relative precision as the
// product tends to 1. Below 2^-500 the value carries a binary exponent.
class LogProduct {
 public:
  /// Multiplies by f = 1 - g, where g must be accurate wherever f >= 1/2.
  void multiply(double f, double g) {
    if (near_one_) complement_ += value_ * g;
    if (f < kTiny) [[unlikely]] {
      int exponent = 0;
      f = std::frexp(f, &exponent);
      exponent_ += exponent;
      near_one_ = false;
    }
    value_ *= f;
    if (value_ < 0.5) {
      near_one_ = false;
      if (value_ < kTiny) [[unlikely]] {
        value_ *= kUntiny;
        exponent_ -= kTinyExponent;
      }
    }
  }

  /// Multiplies by f^count for f = 1 - g and an integral count >= 0.
  void power(double f, double g, double count) {
    if (count > kRepeatLimit) {
      log_sum_ += count * (f >= 0.5 ? std::log1p(-g) : std::log(f));
      return;
    }
    if (f < kSmallPowerFloor) [[unlikely]] {
      for (double n = 0.0; n < count; ++n) multiply(f, g);
      return;
    }
    // f^n with 1 - f^n = (1 - f^{n-1}) + f^{n-1} (1 - f), formed off the
    // running product's dependency chain.
    double fn = f;
    double gn = g;
    for (double n = 1.0; n < count; ++n) {
      gn += fn * g;
      fn *= f;
    }
    multiply(fn, gn);
  }

  /// Multiplies by (f * prefix)^count for f = 1 - g: a day's factor times
  /// the product over the days before it.
  void power(double f, double g, const LogProduct& prefix, double count) {
    exponent_ += count * prefix.exponent_;
    log_sum_ += count * prefix.log_sum_;
    const double value = f * prefix.value_;
    power(value, prefix.near_one_ ? g + f * prefix.complement_ : 1.0 - value,
          count);
  }

  /// Multiplies by e^x for x <= 0.
  void multiply_exp(double x) { log_sum_ += x; }

  [[nodiscard]] double log() const {
    return (near_one_ ? std::log1p(-complement_) : std::log(value_)) +
           (exponent_ * kLn2 + log_sum_);
  }

 private:
  double value_ = 1.0;
  double complement_ = 0.0;  ///< 1 - value_, kept while near_one_
  double exponent_ = 0.0;    ///< the product is value_ 2^exponent_ e^log_sum_
  double log_sum_ = 0.0;
  bool near_one_ = true;
};

// A day's detection probability p and survival q = 1 - p, each to full
// relative precision.
struct Detection {
  double p;
  double q;
};

// p = 1 - e^z for z <= 0: -expm1(z) while p < 1/2, else q = e^z exactly
// and p = 1 - q.
Detection one_minus_exp(double z) {
  if (z > -kLn2) {
    const double p = -std::expm1(z);
    return {p, 1.0 - p};
  }
  const double q = std::exp(z);
  return {1.0 - q, q};
}

// The count series as the sufficient-statistic forms consume it: exact
// doubles, with the nonzero-count days listed once (virtual-testing and
// quiet days contribute to base only through s_k - s_i).
struct Series {
  explicit Series(const data::BugCountData& data)
      : days(static_cast<double>(data.days())),
        total(static_cast<double>(data.total())),
        count(data.days()),
        after(data.days()) {
    const auto counts = data.counts();
    const auto cumulative = data.cumulative();
    hits.reserve(static_cast<std::size_t>(
        std::count_if(counts.begin(), counts.end(),
                      [](std::int64_t x) { return x > 0; })));
    for (std::size_t i = 0; i < data.days(); ++i) {
      count[i] = static_cast<double>(counts[i]);
      after[i] = static_cast<double>(data.total() - cumulative[i]);
      exposure += after[i];
      if (counts[i] > 0) hits.push_back(i);
    }
  }

  double days;                     ///< k
  double total;                    ///< s_k
  double exposure = 0.0;           ///< sum_i (s_k - s_i)
  std::vector<double> count;       ///< x_i, index i-1 = day i
  std::vector<double> after;       ///< s_k - s_i
  std::vector<std::size_t> hits;   ///< indices with x_i > 0
};

// model0: p_i = mu, so base = s_k log mu + (sum_i (s_k - s_i)) log1p(-mu)
// and log Q = k log1p(-mu), whatever the series.
class ConstantEvaluator final : public CollapsedEvaluator {
 public:
  explicit ConstantEvaluator(const data::BugCountData& data)
      : series_(data) {}

  CollapsedSums evaluate(std::span<const double> zeta) override {
    return at(zeta[0]);
  }
  void prepare(std::span<const double>, std::size_t) override {}
  CollapsedSums probe(double mu) override { return at(mu); }

 private:
  [[nodiscard]] CollapsedSums at(double mu) const {
    const double log_q = std::log1p(-mu);
    return {series_.total * std::log(mu) + series_.exposure * log_q,
            series_.days * log_q};
  }

  Series series_;
};

// model1: q_i = mu w_i with w_i = 1 / (1 + theta i), so with
// W_m = prod_{i<=m} w_i summation by parts gives
//   base = log prod_{x_j>0} (p_j W_{j-1})^{x_j} + E log mu,
//   log Q = k log mu + log W_k.
// At fixed theta the W part is prepared, and a mu probe is one product of
// p_j = 1 - mu w_j over the nonzero-count days; a theta probe walks every
// day with one division each.
class PadgettSpurrierEvaluator final : public CollapsedEvaluator {
 public:
  explicit PadgettSpurrierEvaluator(const data::BugCountData& data)
      : series_(data),
        hit_theta_day_(series_.hits.size()),
        hit_weight_(series_.hits.size()) {}

  CollapsedSums evaluate(std::span<const double> zeta) override {
    prepare(zeta, 1);
    return probe(zeta[1]);
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    coordinate_ = coordinate;
    if (coordinate == 1) {
      mu_ = zeta[0];
      log_mu_ = std::log(mu_);
      return;
    }
    const double theta = zeta[1];
    LogProduct weights;  // W_i
    LogProduct after;    // prod_{x_j>0} W_{j-1}^{x_j}
    std::size_t h = 0;
    for (std::size_t i = 0; i < series_.count.size(); ++i) {
      const double theta_day = theta * static_cast<double>(i + 1);
      const double weight = 1.0 / (1.0 + theta_day);
      if (series_.count[i] > 0.0) {
        after.power(1.0, 0.0, weights, series_.count[i]);
        hit_theta_day_[h] = theta_day;
        hit_weight_[h] = weight;
        ++h;
      }
      weights.multiply(weight, theta_day * weight);
    }
    log_after_weight_ = after.log();
    log_weight_ = weights.log();
  }

  CollapsedSums probe(double value) override {
    if (coordinate_ == 0) {
      const double log_mu = std::log(value);
      const double one_minus_mu = 1.0 - value;
      LogProduct detected;
      for (std::size_t h = 0; h < series_.hits.size(); ++h) {
        const Detection d = detection(value, one_minus_mu, hit_theta_day_[h],
                                      hit_weight_[h]);
        detected.power(d.p, d.q, series_.count[series_.hits[h]]);
      }
      return {detected.log() + (series_.exposure * log_mu + log_after_weight_),
              series_.days * log_mu + log_weight_};
    }
    const double one_minus_mu = 1.0 - mu_;
    LogProduct weights;
    LogProduct base;
    for (std::size_t i = 0; i < series_.count.size(); ++i) {
      const double theta_day = value * static_cast<double>(i + 1);
      const double weight = 1.0 / (1.0 + theta_day);
      if (series_.count[i] > 0.0) {
        const Detection d = detection(mu_, one_minus_mu, theta_day, weight);
        base.power(d.p, d.q, weights, series_.count[i]);
      }
      weights.multiply(weight, theta_day * weight);
    }
    return {base.log() + series_.exposure * log_mu_,
            series_.days * log_mu_ + weights.log()};
  }

 private:
  // p = 1 - r for r = mu w = q while r <= 1/2, else
  // p = (theta i + (1 - mu)) w, where mu > 1/2 makes 1 - mu exact.
  static Detection detection(double mu, double one_minus_mu,
                             double theta_day, double weight) {
    const double ratio = mu * weight;
    return {ratio <= 0.5 ? 1.0 - ratio : (theta_day + one_minus_mu) * weight,
            ratio};
  }

  Series series_;
  std::vector<double> hit_theta_day_;  ///< theta i on nonzero-count days
  std::vector<double> hit_weight_;     ///< w_i on those days
  std::size_t coordinate_ = 0;
  double mu_ = 0.5;
  double log_mu_ = 0.0;
  double log_after_weight_ = 0.0;  ///< sum_i (s_k - s_i) log w_i
  double log_weight_ = 0.0;        ///< log W_k
};

// model2: with z_i = (log i - gamma + 1) log mu and t_i = e^{z_i},
// p_i = (1 - mu) w_i and q_i = (t_i + mu) w_i for w_i = 1 / (1 + t_i). With
// R_m = prod_{i<=m} q_i summation by parts gives
//   base = log prod_{x_j>0} (p_j R_{j-1})^{x_j},   log Q = log R_k,
// one walk over the days with one division each and two logs in all. The
// walk takes t_i = i^{log mu} mu^{1 - gamma} from a table of day powers:
// a composite day d = p m, with p its smallest prime factor, has
// d^{log mu} = p^{log mu} m^{log mu}, so the table costs one exp per prime
// day. A mu probe refills it; at fixed mu it is prepared once, so a gamma
// probe takes no per-day exp. Where a day power or mu^{1 - gamma} would
// leave the normal range, the walk takes each t_i from one exp,
// e^{-|z_i|}, which cannot overflow.
class LogLogisticEvaluator final : public CollapsedEvaluator {
 public:
  explicit LogLogisticEvaluator(const data::BugCountData& data)
      : series_(data), log_day_(data.days()), day_power_(data.days(), 1.0) {
    for (std::size_t i = 0; i < log_day_.size(); ++i) {
      log_day_[i] = std::log(static_cast<double>(i + 1));
    }
    // Smallest prime factors by sieve; composites in increasing order, so
    // both factors of each precede it in the table.
    const std::size_t days = data.days();
    std::vector<std::size_t> smallest(days + 1, 0);
    for (std::size_t d = 2; d <= days; ++d) {
      if (smallest[d] != 0) {
        composites_.push_back({d - 1, smallest[d] - 1, d / smallest[d] - 1});
        continue;
      }
      primes_.push_back(d - 1);
      for (std::size_t m = d * d; m <= days; m += d) {
        if (smallest[m] == 0) smallest[m] = d;
      }
    }
  }

  CollapsedSums evaluate(std::span<const double> zeta) override {
    return at(zeta[0], zeta[1]);
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    mu_ = zeta[0];
    gamma_ = zeta[1];
    coordinate_ = coordinate;
    if (coordinate == 0) return;
    log_mu_ = std::log(mu_);
    powers_ready_ = day_powers_in_range(log_mu_);
    if (powers_ready_) fill_day_powers(log_mu_);
  }

  CollapsedSums probe(double value) override {
    if (coordinate_ == 0) return at(value, gamma_);
    if (powers_ready_ && scale_in_range(value, log_mu_)) {
      return power_walk(mu_, value, log_mu_);
    }
    return exp_walk(mu_, value);
  }

 private:
  struct Composite {
    std::size_t day;       ///< index of d = p m
    std::size_t factor;    ///< index of p
    std::size_t cofactor;  ///< index of m
  };

  [[nodiscard]] bool day_powers_in_range(double log_mu) const {
    return log_day_.back() * -log_mu <= kMaxPowerExponent;  // log k
  }
  static bool scale_in_range(double gamma, double log_mu) {
    return std::abs((1.0 - gamma) * log_mu) <= kMaxPowerExponent;
  }

  CollapsedSums at(double mu, double gamma) {
    const double log_mu = std::log(mu);
    if (!day_powers_in_range(log_mu) || !scale_in_range(gamma, log_mu)) {
      return exp_walk(mu, gamma);
    }
    fill_day_powers(log_mu);
    return power_walk(mu, gamma, log_mu);
  }

  void fill_day_powers(double log_mu) {
    for (const std::size_t i : primes_) {
      day_power_[i] = std::exp(log_mu * log_day_[i]);
    }
    for (const Composite& c : composites_) {
      day_power_[c.day] = day_power_[c.factor] * day_power_[c.cofactor];
    }
  }

  [[nodiscard]] CollapsedSums power_walk(double mu, double gamma,
                                         double log_mu) const {
    const double scale = std::exp((1.0 - gamma) * log_mu);
    const double one_minus_mu = 1.0 - mu;
    LogProduct survival;  // R_i
    LogProduct base;
    for (std::size_t i = 0; i < series_.count.size(); ++i) {
      const double t = day_power_[i] * scale;
      const double w = 1.0 / (1.0 + t);
      const double p = one_minus_mu * w;
      const double q = (t + mu) * w;
      if (series_.count[i] > 0.0) base.power(p, q, survival, series_.count[i]);
      survival.multiply(q, p);
    }
    return {base.log(), survival.log()};
  }

  [[nodiscard]] CollapsedSums exp_walk(double mu, double gamma) const {
    const double log_mu = std::log(mu);
    const double one_minus_mu = 1.0 - mu;
    LogProduct survival;  // R_i
    LogProduct base;
    for (std::size_t i = 0; i < series_.count.size(); ++i) {
      const double z = (log_day_[i] - gamma + 1.0) * log_mu;
      const double e = std::exp(-std::abs(z));  // min(t, 1/t)
      const double v = 1.0 / (1.0 + e);
      const double p = one_minus_mu * (z > 0.0 ? e * v : v);
      const double q = z > 0.0 ? (1.0 + mu * e) * v : (e + mu) * v;
      if (series_.count[i] > 0.0) {
        if (z > kMaxPowerExponent) [[unlikely]] {
          // p_i = (1 - mu) v e^{-z} would lose its digits to underflow,
          // so the factor e^{-z} goes into the product as a log.
          base.power(one_minus_mu * v, mu, survival, series_.count[i]);
          base.multiply_exp(-z * series_.count[i]);
        } else {
          base.power(p, q, survival, series_.count[i]);
        }
      }
      survival.multiply(q, p);
    }
    return {base.log(), survival.log()};
  }

  Series series_;
  std::vector<double> log_day_;
  std::vector<double> day_power_;  ///< i^{log mu}; day 1 stays 1
  std::vector<std::size_t> primes_;
  std::vector<Composite> composites_;
  std::size_t coordinate_ = 0;
  double mu_ = 0.5;
  double gamma_ = 0.0;
  double log_mu_ = 0.0;
  bool powers_ready_ = false;
};

// model3: log q_i = c_i log mu with c_i = log(i+2)/(i+1), so
// sum_i (s_k - s_i) log q_i = C_e log mu and log Q = C log mu for two sums
// fixed by the series; the p_i = 1 - mu^{c_i} of the nonzero-count days
// form one product.
class ParetoEvaluator final : public CollapsedEvaluator {
 public:
  explicit ParetoEvaluator(const data::BugCountData& data)
      : series_(data), hit_exponent_(series_.hits.size()) {
    std::size_t h = 0;
    for (std::size_t i = 0; i < series_.after.size(); ++i) {
      const double d = static_cast<double>(i + 1);
      const double exponent = std::log(d + 2.0) / (d + 1.0);
      after_exponent_ += series_.after[i] * exponent;
      sum_exponent_ += exponent;
      if (series_.count[i] > 0.0) hit_exponent_[h++] = exponent;
    }
  }

  CollapsedSums evaluate(std::span<const double> zeta) override {
    return at(zeta[0]);
  }
  void prepare(std::span<const double>, std::size_t) override {}
  CollapsedSums probe(double mu) override { return at(mu); }

 private:
  [[nodiscard]] CollapsedSums at(double mu) const {
    const double log_mu = std::log(mu);
    LogProduct detected;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      const Detection d = one_minus_exp(hit_exponent_[h] * log_mu);
      detected.power(d.p, d.q, series_.count[series_.hits[h]]);
    }
    return {detected.log() + after_exponent_ * log_mu, sum_exponent_ * log_mu};
  }

  Series series_;
  std::vector<double> hit_exponent_;  ///< c_i on nonzero-count days
  double after_exponent_ = 0.0;       ///< C_e = sum_i (s_k - s_i) c_i
  double sum_exponent_ = 0.0;         ///< C = sum_i c_i
};

// model4: log q_i = a_i log mu with a_i = i^w - (i-1)^w. Summation by
// parts telescopes the day sums, sum_i a_i = k^w and
// sum_i (s_k - s_i) a_i = sum_{d<k} d^w x_{d+1}, so only nonzero-count
// days need a power; a_i = (i-1)^w expm1(w log1p(1/(i-1))) avoids the
// cancellation of the difference as w -> 0. At fixed omega the exponents
// are prepared once and a mu probe costs as much as model3's.
class WeibullEvaluator final : public CollapsedEvaluator {
 public:
  explicit WeibullEvaluator(const data::BugCountData& data)
      : series_(data),
        log_days_(std::log(series_.days)),
        hit_log_previous_(series_.hits.size(), 0.0),
        hit_log1p_ratio_(series_.hits.size(), 0.0),
        hit_exponent_(series_.hits.size()) {
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      // Day i = index + 1; the previous day is i - 1 = index.
      if (series_.hits[h] == 0) continue;
      const double previous = static_cast<double>(series_.hits[h]);
      hit_log_previous_[h] = std::log(previous);
      hit_log1p_ratio_[h] = std::log1p(1.0 / previous);
    }
  }

  CollapsedSums evaluate(std::span<const double> zeta) override {
    set_omega(zeta[1]);
    return at(std::log(zeta[0]));
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    coordinate_ = coordinate;
    if (coordinate == 0) {
      set_omega(zeta[1]);
    } else {
      log_mu_ = std::log(zeta[0]);
    }
  }

  CollapsedSums probe(double value) override {
    if (coordinate_ == 0) return at(std::log(value));
    set_omega(value);
    return at(log_mu_);
  }

 private:
  void set_omega(double omega) {
    after_exponent_ = 0.0;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      if (series_.hits[h] == 0) {
        hit_exponent_[h] = 1.0;  // 1^w - 0^w
        continue;
      }
      const double power = std::exp(omega * hit_log_previous_[h]);
      hit_exponent_[h] = power * std::expm1(omega * hit_log1p_ratio_[h]);
      after_exponent_ += series_.count[series_.hits[h]] * power;
    }
    sum_exponent_ = std::exp(omega * log_days_);
  }

  [[nodiscard]] CollapsedSums at(double log_mu) const {
    LogProduct detected;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      const Detection d = one_minus_exp(hit_exponent_[h] * log_mu);
      detected.power(d.p, d.q, series_.count[series_.hits[h]]);
    }
    return {detected.log() + after_exponent_ * log_mu, sum_exponent_ * log_mu};
  }

  Series series_;
  double log_days_;                      ///< log k
  std::vector<double> hit_log_previous_;  ///< log(i-1) on nonzero days
  std::vector<double> hit_log1p_ratio_;   ///< log1p(1/(i-1)) on them
  std::vector<double> hit_exponent_;      ///< a_i at the prepared omega
  std::size_t coordinate_ = 0;
  double log_mu_ = 0.0;
  double after_exponent_ = 0.0;  ///< sum_{d<k} d^w x_{d+1}
  double sum_exponent_ = 1.0;    ///< k^w
};

// The size-biased multinomial channel, zeta = (shape, c) with c the scale:
// log q_i = shape l_i with l_i = log((c + i - 1) / (c + i)). The survival
// product telescopes, prod_{i<j} q_i = (c / (c + j - 1))^shape, so
//   sum_i (s_k - s_i) log q_i = shape sum_{x_j>0} x_j log(c / (c + j - 1)),
//   log Q = -shape log1p(k / c).
// At a fixed scale the l_j of the nonzero-count days and that sum are
// prepared, so a shape probe costs one expm1 or exp per nonzero-count day
// and one log; a scale probe adds one log1p per nonzero-count day.
class SizeBiasedEvaluator final : public CollapsedEvaluator {
 public:
  explicit SizeBiasedEvaluator(const data::BugCountData& data)
      : series_(data), hit_log_ratio_(series_.hits.size()) {}

  CollapsedSums evaluate(std::span<const double> zeta) override {
    set_scale(zeta[1]);
    return at(zeta[0]);
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    coordinate_ = coordinate;
    if (coordinate == 0) {
      set_scale(zeta[1]);
    } else {
      shape_ = zeta[0];
    }
  }

  CollapsedSums probe(double value) override {
    if (coordinate_ == 0) return at(value);
    set_scale(value);
    return at(shape_);
  }

 private:
  void set_scale(double scale) {
    LogProduct thinned;  // prod_{x_j>0} (c / (c + j - 1))^{x_j}
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      // Day j = index + 1, so j - 1 = index; c + (j - 1) keeps a tiny c.
      const double before = static_cast<double>(series_.hits[h]);
      const double inverse = 1.0 / (scale + before);
      hit_log_ratio_[h] = -std::log1p(inverse);
      thinned.power(scale * inverse, before * inverse,
                    series_.count[series_.hits[h]]);
    }
    log_thinned_ = thinned.log();
    log1p_days_ = std::log1p(series_.days / scale);
  }

  [[nodiscard]] CollapsedSums at(double shape) const {
    LogProduct detected;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      const Detection d = one_minus_exp(shape * hit_log_ratio_[h]);
      detected.power(d.p, d.q, series_.count[series_.hits[h]]);
    }
    return {detected.log() + shape * log_thinned_, -shape * log1p_days_};
  }

  Series series_;
  std::vector<double> hit_log_ratio_;  ///< l_j on nonzero-count days
  std::size_t coordinate_ = 0;
  double shape_ = 1.0;
  double log_thinned_ = 0.0;  ///< sum_{x_j>0} x_j log(c / (c + j - 1))
  double log1p_days_ = 0.0;   ///< log1p(k / c)
};

// The reference path, for kinds without a sufficient-statistic form.
class ChannelEvaluator final : public CollapsedEvaluator {
 public:
  ChannelEvaluator(const DetectionModel& model, data::BugCountData data)
      : model_(model),
        data_(std::move(data)),
        zeta_(model.parameter_count(), 0.0),
        probabilities_(data_.days(), 0.0),
        log_survivals_(data_.days(), 0.0) {}

  CollapsedSums evaluate(std::span<const double> zeta) override {
    model_.detection_into(data_.days(), zeta, probabilities_, log_survivals_);
    const double base = log_likelihood_collapsed_base(data_, probabilities_,
                                                      log_survivals_);
    double log_q_sum = 0.0;
    for (const double log_q : log_survivals_) log_q_sum += log_q;
    return {base, log_q_sum};
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    std::copy(zeta.begin(), zeta.end(), zeta_.begin());
    coordinate_ = coordinate;
  }

  CollapsedSums probe(double value) override {
    zeta_[coordinate_] = value;
    return evaluate(zeta_);
  }

 private:
  const DetectionModel& model_;
  data::BugCountData data_;
  std::vector<double> zeta_;
  std::size_t coordinate_ = 0;
  std::vector<double> probabilities_;
  std::vector<double> log_survivals_;
};

}  // namespace

std::unique_ptr<CollapsedEvaluator> make_collapsed_evaluator(
    const DetectionModel& model, const data::BugCountData& data) {
  switch (model.kind()) {
    case DetectionModelKind::kConstant:
      return std::make_unique<ConstantEvaluator>(data);
    case DetectionModelKind::kPadgettSpurrier:
      return std::make_unique<PadgettSpurrierEvaluator>(data);
    case DetectionModelKind::kLogLogistic:
      return std::make_unique<LogLogisticEvaluator>(data);
    case DetectionModelKind::kPareto:
      return std::make_unique<ParetoEvaluator>(data);
    case DetectionModelKind::kWeibull:
      return std::make_unique<WeibullEvaluator>(data);
    case DetectionModelKind::kSizeBiasedMultinomial:
      return std::make_unique<SizeBiasedEvaluator>(data);
    default:
      return make_channel_evaluator(model, data);
  }
}

std::unique_ptr<CollapsedEvaluator> make_channel_evaluator(
    const DetectionModel& model, const data::BugCountData& data) {
  return std::make_unique<ChannelEvaluator>(model, data);
}

}  // namespace srm::core
