#include "core/collapsed_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/likelihood.hpp"
#include "support/math.hpp"

namespace srm::core {

namespace {

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

// model1: q_i = mu / (1 + theta i), so sum_i (s_k - s_i) log q_i =
// E log mu - sum_i (s_k - s_i) log1p(theta i). At fixed theta the log1p
// sums and the day terms are prepared once and a mu probe costs one log1p
// per nonzero-count day; a theta probe walks every day.
class PadgettSpurrierEvaluator final : public CollapsedEvaluator {
 public:
  explicit PadgettSpurrierEvaluator(const data::BugCountData& data)
      : series_(data),
        hit_theta_day_(series_.hits.size()),
        hit_log1p_(series_.hits.size()) {}

  CollapsedSums evaluate(std::span<const double> zeta) override {
    prepare(zeta, 1);
    return probe(zeta[1]);
  }

  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    coordinate_ = coordinate;
    mu_ = zeta[0];
    if (coordinate == 1) return;
    const double theta = zeta[1];
    after_log1p_ = 0.0;
    sum_log1p_ = 0.0;
    std::size_t h = 0;
    for (std::size_t i = 0; i < series_.after.size(); ++i) {
      const double theta_day = theta * static_cast<double>(i + 1);
      const double log1p_day = std::log1p(theta_day);
      after_log1p_ += series_.after[i] * log1p_day;
      sum_log1p_ += log1p_day;
      if (h < series_.hits.size() && series_.hits[h] == i) {
        hit_theta_day_[h] = theta_day;
        hit_log1p_[h] = log1p_day;
        ++h;
      }
    }
  }

  CollapsedSums probe(double value) override {
    if (coordinate_ == 0) {
      const double one_minus_mu = 1.0 - value;
      double hit_sum = 0.0;
      for (std::size_t h = 0; h < series_.hits.size(); ++h) {
        hit_sum += series_.count[series_.hits[h]] *
                   log_p(value, one_minus_mu, hit_theta_day_[h],
                         hit_log1p_[h]);
      }
      return sums(std::log(value), hit_sum);
    }
    const double one_minus_mu = 1.0 - mu_;
    after_log1p_ = 0.0;
    sum_log1p_ = 0.0;
    double hit_sum = 0.0;
    for (std::size_t i = 0; i < series_.after.size(); ++i) {
      const double theta_day = value * static_cast<double>(i + 1);
      const double log1p_day = std::log1p(theta_day);
      after_log1p_ += series_.after[i] * log1p_day;
      sum_log1p_ += log1p_day;
      if (series_.count[i] > 0.0) {
        hit_sum += series_.count[i] *
                   log_p(mu_, one_minus_mu, theta_day, log1p_day);
      }
    }
    return sums(std::log(mu_), hit_sum);
  }

 private:
  // log p_i = log(1 - mu / (1 + theta i)): log1p while the subtracted
  // ratio is at most 1/2, else log(theta i + (1 - mu)) - log1p(theta i),
  // where mu > 1/2 makes 1 - mu exact. Neither branch cancels.
  static double log_p(double mu, double one_minus_mu, double theta_day,
                      double log1p_day) {
    const double ratio = mu / (1.0 + theta_day);
    return ratio <= 0.5 ? std::log1p(-ratio)
                        : std::log(theta_day + one_minus_mu) - log1p_day;
  }

  [[nodiscard]] CollapsedSums sums(double log_mu, double hit_sum) const {
    return {hit_sum + (series_.exposure * log_mu - after_log1p_),
            series_.days * log_mu - sum_log1p_};
  }

  Series series_;
  std::vector<double> hit_theta_day_;  ///< theta i on nonzero-count days
  std::vector<double> hit_log1p_;      ///< log1p(theta i) on those days
  std::size_t coordinate_ = 0;
  double mu_ = 0.5;
  double after_log1p_ = 0.0;  ///< sum_i (s_k - s_i) log1p(theta i)
  double sum_log1p_ = 0.0;    ///< sum_i log1p(theta i)
};

// model2: with z_i = (log i - gamma + 1) log mu and t_i = e^{z_i},
// p_i = (1 - mu) w_i and q_i = (t_i + mu) w_i for w_i = 1 / (1 + t_i).
// One exp, e^{-|z_i|}, gives w_i and log1p(t_i) without overflow for
// either sign of z_i; log q_i is log1p(-p_i) while q_i >= 1/2 and
// log(t_i + mu) - log1p(t_i) below it, log p_i = log1p(-mu) - log1p(t_i).
// Neither coordinate leaves a per-day factor fixed, so every probe is a
// full evaluation.
class LogLogisticEvaluator final : public CollapsedEvaluator {
 public:
  explicit LogLogisticEvaluator(const data::BugCountData& data)
      : series_(data), log_day_(data.days()), zeta_{0.5, 0.0} {
    for (std::size_t i = 0; i < log_day_.size(); ++i) {
      log_day_[i] = std::log(static_cast<double>(i + 1));
    }
  }

  CollapsedSums evaluate(std::span<const double> zeta) override {
    return at(zeta[0], zeta[1]);
  }
  void prepare(std::span<const double> zeta, std::size_t coordinate) override {
    zeta_[0] = zeta[0];
    zeta_[1] = zeta[1];
    coordinate_ = coordinate;
  }
  CollapsedSums probe(double value) override {
    zeta_[coordinate_] = value;
    return at(zeta_[0], zeta_[1]);
  }

 private:
  [[nodiscard]] CollapsedSums at(double mu, double gamma) const {
    const double log_mu = std::log(mu);
    const double log1p_neg_mu = std::log1p(-mu);
    const double one_minus_mu = 1.0 - mu;
    double base = 0.0;
    double log_q_sum = 0.0;
    for (std::size_t i = 0; i < log_day_.size(); ++i) {
      const double z = (log_day_[i] - gamma + 1.0) * log_mu;
      const double e = std::exp(-std::abs(z));  // min(t, 1/t)
      const double p = one_minus_mu * ((z > 0.0 ? e : 1.0) / (1.0 + e));
      double log_q;
      double log1p_t = 0.0;  // log1p(t_i), formed only where needed
      const bool hit = series_.count[i] > 0.0;
      if (p <= 0.5) {
        log_q = std::log1p(-p);
        if (hit) log1p_t = std::max(z, 0.0) + std::log1p(e);
      } else {
        // p > 1/2 forces t < 1, so e = t here.
        log1p_t = std::log1p(e);
        log_q = std::log(e + mu) - log1p_t;
      }
      if (hit) base += series_.count[i] * (log1p_neg_mu - log1p_t);
      base += series_.after[i] * log_q;
      log_q_sum += log_q;
    }
    return {base, log_q_sum};
  }

  Series series_;
  std::vector<double> log_day_;
  double zeta_[2];
  std::size_t coordinate_ = 0;
};

// model3: log q_i = c_i log mu with c_i = log(i+2)/(i+1), so
// sum_i (s_k - s_i) log q_i = C_e log mu and log Q = C log mu for two sums
// fixed by the series; log p_i = log1mexp(c_i log mu) is needed on
// nonzero-count days only.
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
    double hit_sum = 0.0;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      hit_sum += series_.count[series_.hits[h]] *
                 math::log1mexp(hit_exponent_[h] * log_mu);
    }
    return {hit_sum + after_exponent_ * log_mu, sum_exponent_ * log_mu};
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
    double hit_sum = 0.0;
    for (std::size_t h = 0; h < series_.hits.size(); ++h) {
      hit_sum += series_.count[series_.hits[h]] *
                 math::log1mexp(hit_exponent_[h] * log_mu);
    }
    return {hit_sum + after_exponent_ * log_mu, sum_exponent_ * log_mu};
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
    default:
      return make_channel_evaluator(model, data);
  }
}

std::unique_ptr<CollapsedEvaluator> make_channel_evaluator(
    const DetectionModel& model, const data::BugCountData& data) {
  return std::make_unique<ChannelEvaluator>(model, data);
}

}  // namespace srm::core
