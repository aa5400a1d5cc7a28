#include "core/detection_models.hpp"

#include <array>
#include <limits>
#include <cmath>

#include "core/detection_tables.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::core {

namespace {

void check_zeta(const DetectionModel& model, std::span<const double> zeta) {
  SRM_EXPECTS(zeta.size() == model.parameter_count(),
              "zeta size must match the detection model's parameter count");
}

void check_batch(const DetectionModel& model, std::size_t days,
                 std::span<const double> zeta, std::span<const double> out) {
  check_zeta(model, zeta);
  SRM_EXPECTS(out.size() >= days,
              "batch detection output buffer is smaller than `days`");
}

// Day-indexed constants (log d, the Pareto hazard exponent) live in the
// shared thread_local tables of detection_tables.hpp; each model pulls the
// column it needs per probe.

class ConstantModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kConstant;
  }
  std::string name() const override { return "model0"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    return zeta[0];  // Eq (3)
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    for (std::size_t day = 1; day <= days; ++day) out[day - 1] = mu;
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    const double log_q = mu >= 1.0
                             ? -std::numeric_limits<double>::infinity()
                             : std::log1p(-mu);
    for (std::size_t day = 1; day <= days; ++day) out[day - 1] = log_q;
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    probabilities_into(days, zeta, probabilities_out);
    log_survivals_into(days, zeta, log_survivals_out);
  }
};

class PadgettSpurrierModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPadgettSpurrier;
  }
  std::string name() const override { return "model1"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double theta = zeta[1];
    return 1.0 - mu / (theta * static_cast<double>(day) + 1.0);  // Eq (4)
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    // q_i = mu / (theta i + 1) exactly.
    return std::log(zeta[0]) -
           std::log(zeta[1] * static_cast<double>(day) + 1.0);
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    const double theta = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      out[day - 1] = 1.0 - mu / (theta * static_cast<double>(day) + 1.0);
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double log_mu = std::log(zeta[0]);
    const double theta = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      out[day - 1] =
          log_mu - std::log(theta * static_cast<double>(day) + 1.0);
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const double mu = zeta[0];
    const double theta = zeta[1];
    const double log_mu = std::log(mu);
    for (std::size_t day = 1; day <= days; ++day) {
      const double denom = theta * static_cast<double>(day) + 1.0;
      probabilities_out[day - 1] = 1.0 - mu / denom;
      log_survivals_out[day - 1] = log_mu - std::log(denom);
    }
  }
};

class LogLogisticModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLogLogistic;
  }
  std::string name() const override { return "model2"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"gamma", -limits.gamma_bound,
                               limits.gamma_bound}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double gamma = zeta[1];
    const double exponent = std::log(static_cast<double>(day)) - gamma + 1.0;
    return (1.0 - mu) / (std::pow(mu, exponent) + 1.0);  // Eq (5)
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double exponent =
        std::log(static_cast<double>(day)) - zeta[1] + 1.0;
    // q = (mu^e + mu) / (mu^e + 1); for mu^e overflowing, q -> 1.
    const double t = std::pow(mu, exponent);
    if (!std::isfinite(t)) return 0.0;
    return std::log(t + mu) - std::log1p(t);
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const auto& log_day = day_tables(days).log_day;
    const double mu = zeta[0];
    const double gamma = zeta[1];
    const double one_minus_mu = 1.0 - mu;
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = log_day[day - 1] - gamma + 1.0;
      out[day - 1] = one_minus_mu / (std::pow(mu, exponent) + 1.0);
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const auto& log_day = day_tables(days).log_day;
    const double mu = zeta[0];
    const double gamma = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = log_day[day - 1] - gamma + 1.0;
      const double t = std::pow(mu, exponent);
      out[day - 1] =
          !std::isfinite(t) ? 0.0 : std::log(t + mu) - std::log1p(t);
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const auto& log_day = day_tables(days).log_day;
    const double mu = zeta[0];
    const double gamma = zeta[1];
    const double one_minus_mu = 1.0 - mu;
    // Both channels need mu^e for the same exponent; compute it once.
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = log_day[day - 1] - gamma + 1.0;
      const double t = std::pow(mu, exponent);
      probabilities_out[day - 1] = one_minus_mu / (t + 1.0);
      log_survivals_out[day - 1] =
          !std::isfinite(t) ? 0.0 : std::log(t + mu) - std::log1p(t);
    }
  }
};

class ParetoModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPareto;
  }
  std::string name() const override { return "model3"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double d = static_cast<double>(day);
    const double exponent = std::log(d + 2.0) / (d + 1.0);
    return 1.0 - std::pow(mu, exponent);  // Eq (6)
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double d = static_cast<double>(day);
    return std::log(d + 2.0) / (d + 1.0) * std::log(zeta[0]);
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const auto& exponents = day_tables(days).pareto_exponent;
    const double mu = zeta[0];
    for (std::size_t day = 1; day <= days; ++day) {
      out[day - 1] = 1.0 - std::pow(mu, exponents[day - 1]);
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const auto& exponents = day_tables(days).pareto_exponent;
    const double log_mu = std::log(zeta[0]);
    for (std::size_t day = 1; day <= days; ++day) {
      out[day - 1] = exponents[day - 1] * log_mu;
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const auto& exponents = day_tables(days).pareto_exponent;
    const double mu = zeta[0];
    const double log_mu = std::log(mu);
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = exponents[day - 1];
      probabilities_out[day - 1] = 1.0 - std::pow(mu, exponent);
      log_survivals_out[day - 1] = exponent * log_mu;
    }
  }
};

class WeibullModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kWeibull;
  }
  std::string name() const override { return "model4"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}, {"omega", 0.0, 1.0}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double omega = zeta[1];
    const double d = static_cast<double>(day);
    const double exponent = std::pow(d, omega) - std::pow(d - 1.0, omega);
    return 1.0 - std::pow(mu, exponent);  // Eq (7)
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double d = static_cast<double>(day);
    const double exponent =
        std::pow(d, zeta[1]) - std::pow(d - 1.0, zeta[1]);
    return exponent * std::log(zeta[0]);
  }
  // The batch channels carry pow(day, omega) across loop iterations:
  // pow(d - 1, omega) at day d is exactly pow(d, omega) from day d - 1
  // (integer days are exact doubles), so each day costs one day-power
  // instead of two. Bit-identical by the identical-inputs rule.
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    const double omega = zeta[1];
    double prev = std::pow(0.0, omega);
    for (std::size_t day = 1; day <= days; ++day) {
      const double cur = std::pow(static_cast<double>(day), omega);
      out[day - 1] = 1.0 - std::pow(mu, cur - prev);
      prev = cur;
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double omega = zeta[1];
    const double log_mu = std::log(zeta[0]);
    double prev = std::pow(0.0, omega);
    for (std::size_t day = 1; day <= days; ++day) {
      const double cur = std::pow(static_cast<double>(day), omega);
      out[day - 1] = (cur - prev) * log_mu;
      prev = cur;
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const double mu = zeta[0];
    const double omega = zeta[1];
    const double log_mu = std::log(mu);
    double prev = std::pow(0.0, omega);
    for (std::size_t day = 1; day <= days; ++day) {
      const double cur = std::pow(static_cast<double>(day), omega);
      const double exponent = cur - prev;
      probabilities_out[day - 1] = 1.0 - std::pow(mu, exponent);
      log_survivals_out[day - 1] = exponent * log_mu;
      prev = cur;
    }
  }
};

class RayleighModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kRayleigh;
  }
  std::string name() const override { return "model5"; }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    // i^2 - (i-1)^2 = 2i - 1: the discrete Weibull of Eq (7) at shape 2,
    // i.e. a linearly increasing hazard exponent.
    const double exponent = 2.0 * static_cast<double>(day) - 1.0;
    return 1.0 - std::pow(zeta[0], exponent);
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    return (2.0 * static_cast<double>(day) - 1.0) * std::log(zeta[0]);
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = 2.0 * static_cast<double>(day) - 1.0;
      out[day - 1] = 1.0 - std::pow(mu, exponent);
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double log_mu = std::log(zeta[0]);
    for (std::size_t day = 1; day <= days; ++day) {
      out[day - 1] = (2.0 * static_cast<double>(day) - 1.0) * log_mu;
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const double mu = zeta[0];
    const double log_mu = std::log(mu);
    for (std::size_t day = 1; day <= days; ++day) {
      const double exponent = 2.0 * static_cast<double>(day) - 1.0;
      probabilities_out[day - 1] = 1.0 - std::pow(mu, exponent);
      log_survivals_out[day - 1] = exponent * log_mu;
    }
  }
};

class LearningCurveModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLearningCurve;
  }
  std::string name() const override { return "model6"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double mu = zeta[0];
    const double theta_i = zeta[1] * static_cast<double>(day);
    // Detection skill ramps from ~0 on day 1 toward the asymptote mu —
    // the "testers learn the system" mirror image of model1 (which starts
    // at 1 - mu and saturates at 1).
    return mu * theta_i / (theta_i + 1.0);
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    check_zeta(*this, zeta);
    SRM_EXPECTS(day >= 1, "day must be >= 1");
    const double theta_i = zeta[1] * static_cast<double>(day);
    // q = (theta i (1 - mu) + 1) / (theta i + 1) exactly.
    return std::log(theta_i * (1.0 - zeta[0]) + 1.0) - std::log1p(theta_i);
  }
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double mu = zeta[0];
    const double theta = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      const double theta_i = theta * static_cast<double>(day);
      out[day - 1] = mu * theta_i / (theta_i + 1.0);
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    check_batch(*this, days, zeta, out);
    const double one_minus_mu = 1.0 - zeta[0];
    const double theta = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      const double theta_i = theta * static_cast<double>(day);
      out[day - 1] =
          std::log(theta_i * one_minus_mu + 1.0) - std::log1p(theta_i);
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    check_batch(*this, days, zeta, probabilities_out);
    check_batch(*this, days, zeta, log_survivals_out);
    const double mu = zeta[0];
    const double one_minus_mu = 1.0 - mu;
    const double theta = zeta[1];
    for (std::size_t day = 1; day <= days; ++day) {
      const double theta_i = theta * static_cast<double>(day);
      probabilities_out[day - 1] = mu * theta_i / (theta_i + 1.0);
      log_survivals_out[day - 1] =
          std::log(theta_i * one_minus_mu + 1.0) - std::log1p(theta_i);
    }
  }
};

// The size-biased family's multinomial detection channel
// (Dey-Chakraborty, arXiv:2202.08107; multinomial form arXiv:2406.04360).
// Each bug carries a latent detectability z ~ Gamma(shape, scale) (density
// ∝ z^{shape-1} e^{-scale z}) and survives any single testing day with
// probability e^{-z}, so big bugs are found first. Bugs still latent at the
// start of day i are size-biased toward small z: their detectability is
// Gamma(shape, scale + i - 1), and the day-i hazard among survivors is
//
//   log q_i = shape * (log(scale + i - 1) - log(scale + i)),
//   p_i     = 1 - q_i = -expm1(log q_i),                      (decreasing)
//   Q_k     = prod q_i = (scale / (scale + k))^shape          (Lomax tail).
//
// The day counts given N are multinomial over detection days, which
// factorizes into exactly the sequential-binomial likelihood of Eq (2) with
// this hazard. Both channels run through the log form: q_i itself never
// underflows for admissible (shape, scale) but the log form is the exact
// quantity the likelihood kernels consume, and -expm1 keeps p_i fully
// accurate when q_i ~ 1 (large scale, the common posterior region).
class SizeBiasedDetection final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kSizeBiasedMultinomial;
  }
  std::string name() const override { return "multinomial"; }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"shape", 0.0, limits.sb_shape_max},
            {"scale", 0.0, limits.sb_scale_max}};
  }
  double probability(std::size_t day,
                     std::span<const double> zeta) const override {
    return -std::expm1(log_survival(day, zeta));
  }
  double log_survival(std::size_t day,
                      std::span<const double> zeta) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    return shape * (std::log(scale + static_cast<double>(day - 1)) -
                    std::log(scale + static_cast<double>(day)));
  }
  // Batch channels: one log per day instead of two — log(scale + i - 1) at
  // day i is exactly the log(scale + i) computed at day i - 1, so the loop
  // carries it. Bit-identical to the scalar channel because the carried
  // value is std::log of the same double (scale + double(day - 1)).
  void probabilities_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      out[i] = -std::expm1(shape * (prev - cur));
      prev = cur;
    }
  }
  void log_survivals_into(std::size_t days, std::span<const double> zeta,
                          std::span<double> out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      out[i] = shape * (prev - cur);
      prev = cur;
    }
  }
  void detection_into(std::size_t days, std::span<const double> zeta,
                      std::span<double> probabilities_out,
                      std::span<double> log_survivals_out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    double prev = std::log(scale);
    for (std::size_t i = 0; i < days; ++i) {
      const double cur = std::log(scale + static_cast<double>(i + 1));
      const double log_q = shape * (prev - cur);
      log_survivals_out[i] = log_q;
      probabilities_out[i] = -std::expm1(log_q);
      prev = cur;
    }
  }
};

constexpr std::array<DetectionModelKind, 5> kAllKinds = {
    DetectionModelKind::kConstant,        DetectionModelKind::kPadgettSpurrier,
    DetectionModelKind::kLogLogistic,     DetectionModelKind::kPareto,
    DetectionModelKind::kWeibull,
};

constexpr std::array<DetectionModelKind, 2> kExtendedKinds = {
    DetectionModelKind::kRayleigh,
    DetectionModelKind::kLearningCurve,
};

}  // namespace

std::span<const DetectionModelKind> all_detection_model_kinds() {
  return kAllKinds;
}

std::span<const DetectionModelKind> extended_detection_model_kinds() {
  return kExtendedKinds;
}

std::string to_string(DetectionModelKind kind) {
  // The size-biased multinomial is not part of the "modelN" hazard
  // catalogue; it carries its own stable name in artifacts and flags.
  if (kind == DetectionModelKind::kSizeBiasedMultinomial) {
    return "multinomial";
  }
  return "model" + support::dec(static_cast<int>(kind));
}

std::optional<DetectionModelKind> detection_model_from_string(
    const std::string& name) {
  for (const auto kind : all_detection_model_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  for (const auto kind : extended_detection_model_kinds()) {
    if (to_string(kind) == name) return kind;
  }
  if (name == to_string(DetectionModelKind::kSizeBiasedMultinomial)) {
    return DetectionModelKind::kSizeBiasedMultinomial;
  }
  return std::nullopt;
}

std::vector<std::string> detection_model_names() {
  std::vector<std::string> names;
  for (const auto kind : all_detection_model_kinds()) {
    names.push_back(to_string(kind));
  }
  for (const auto kind : extended_detection_model_kinds()) {
    names.push_back(to_string(kind));
  }
  return names;
}

double DetectionModel::log_survival(std::size_t day,
                                    std::span<const double> zeta) const {
  SRM_EXPECTS(day >= 1 && zeta.size() == parameter_count(),
              "log_survival requires a 1-based day and a full zeta vector");
  const double p = probability(day, zeta);
  if (p >= 1.0) return -std::numeric_limits<double>::infinity();
  return std::log1p(-p);
}

void DetectionModel::probabilities_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "probabilities_into requires a full zeta vector and "
              "out.size() >= days");
  for (std::size_t day = 1; day <= days; ++day) {
    out[day - 1] = probability(day, zeta);
  }
}

void DetectionModel::log_survivals_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "log_survivals_into requires a full zeta vector and "
              "out.size() >= days");
  for (std::size_t day = 1; day <= days; ++day) {
    out[day - 1] = log_survival(day, zeta);
  }
}

void DetectionModel::detection_into(std::size_t days,
                                    std::span<const double> zeta,
                                    std::span<double> probabilities_out,
                                    std::span<double> log_survivals_out)
    const {
  SRM_EXPECTS(probabilities_out.size() >= days &&
                  log_survivals_out.size() >= days,
              "detection_into requires both out buffers >= days");
  probabilities_into(days, zeta, probabilities_out);
  log_survivals_into(days, zeta, log_survivals_out);
}

std::vector<double> DetectionModel::log_survivals(
    std::size_t days, std::span<const double> zeta) const {
  SRM_EXPECTS(zeta.size() == parameter_count(),
              "log_survivals requires a full zeta vector");
  std::vector<double> log_q(days);
  log_survivals_into(days, zeta, log_q);
  return log_q;
}

std::vector<double> DetectionModel::probabilities(
    std::size_t days, std::span<const double> zeta) const {
  SRM_EXPECTS(zeta.size() == parameter_count(),
              "probabilities requires a full zeta vector");
  std::vector<double> p(days);
  probabilities_into(days, zeta, p);
  return p;
}

std::unique_ptr<DetectionModel> make_detection_model(DetectionModelKind kind) {
  switch (kind) {
    case DetectionModelKind::kConstant:
      return std::make_unique<ConstantModel>();
    case DetectionModelKind::kPadgettSpurrier:
      return std::make_unique<PadgettSpurrierModel>();
    case DetectionModelKind::kLogLogistic:
      return std::make_unique<LogLogisticModel>();
    case DetectionModelKind::kPareto:
      return std::make_unique<ParetoModel>();
    case DetectionModelKind::kWeibull:
      return std::make_unique<WeibullModel>();
    case DetectionModelKind::kRayleigh:
      return std::make_unique<RayleighModel>();
    case DetectionModelKind::kLearningCurve:
      return std::make_unique<LearningCurveModel>();
    case DetectionModelKind::kSizeBiasedMultinomial:
      return std::make_unique<SizeBiasedDetection>();
  }
  throw InvalidArgument("unknown DetectionModelKind");
}

}  // namespace srm::core
