#include "core/detection_models.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "core/detection_tables.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::core {

namespace {

/// Days one kernel call covers: the length of whichever channel it fills.
std::size_t range_days(std::span<const double> p_out,
                       std::span<const double> log_q_out) {
  return std::max(p_out.size(), log_q_out.size());
}

// Day-indexed constants (log d, the Pareto hazard exponent) live in the
// shared thread_local tables of detection_tables.hpp; each model pulls the
// column it needs per call.

class ConstantModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kConstant;
  }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 private:
  void fill(std::size_t, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    std::ranges::fill(p_out, mu);  // Eq (3)
    if (!log_q_out.empty()) {
      std::ranges::fill(log_q_out,
                        mu >= 1.0 ? -std::numeric_limits<double>::infinity()
                                  : std::log1p(-mu));
    }
  }
};

class PadgettSpurrierModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPadgettSpurrier;
  }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }

 private:
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double theta = zeta[1];
    const double log_mu = log_q_out.empty() ? 0.0 : std::log(mu);
    const std::size_t n = range_days(p_out, log_q_out);
    for (std::size_t i = 0; i < n; ++i) {
      const double denom =
          theta * static_cast<double>(first_day + i) + 1.0;
      if (!p_out.empty()) p_out[i] = 1.0 - mu / denom;  // Eq (4)
      // q_i = mu / (theta i + 1) exactly.
      if (!log_q_out.empty()) log_q_out[i] = log_mu - std::log(denom);
    }
  }
};

class LogLogisticModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLogLogistic;
  }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"gamma", -limits.gamma_bound,
                               limits.gamma_bound}};
  }

 private:
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const std::size_t n = range_days(p_out, log_q_out);
    const auto& log_day = day_tables(first_day + n - 1).log_day;
    const double mu = zeta[0];
    const double gamma = zeta[1];
    const double one_minus_mu = 1.0 - mu;
    for (std::size_t i = 0; i < n; ++i) {
      const double exponent = log_day[first_day + i - 1] - gamma + 1.0;
      // Both channels need mu^e for the same exponent; compute it once.
      const double t = std::pow(mu, exponent);
      if (!p_out.empty()) p_out[i] = one_minus_mu / (t + 1.0);  // Eq (5)
      // q = (mu^e + mu) / (mu^e + 1); for mu^e overflowing, q -> 1.
      if (!log_q_out.empty()) {
        log_q_out[i] =
            !std::isfinite(t) ? 0.0 : std::log(t + mu) - std::log1p(t);
      }
    }
  }
};

class ParetoModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kPareto;
  }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 private:
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const std::size_t n = range_days(p_out, log_q_out);
    const auto& exponents = day_tables(first_day + n - 1).pareto_exponent;
    const double mu = zeta[0];
    const double log_mu = log_q_out.empty() ? 0.0 : std::log(mu);
    for (std::size_t i = 0; i < n; ++i) {
      const double exponent = exponents[first_day + i - 1];
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);  // Eq (6)
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
    }
  }
};

class WeibullModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kWeibull;
  }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}, {"omega", 0.0, 1.0}};
  }

 private:
  // The kernel carries pow(day, omega) across loop iterations:
  // pow(d - 1, omega) at day d is exactly pow(d, omega) from day d - 1
  // (integer days are exact doubles), so each day costs one day-power
  // instead of two, and the range's first day seeds the carry.
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double omega = zeta[1];
    const double log_mu = log_q_out.empty() ? 0.0 : std::log(mu);
    const std::size_t n = range_days(p_out, log_q_out);
    double prev = std::pow(static_cast<double>(first_day - 1), omega);
    for (std::size_t i = 0; i < n; ++i) {
      const double cur = std::pow(static_cast<double>(first_day + i), omega);
      const double exponent = cur - prev;
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);  // Eq (7)
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
      prev = cur;
    }
  }
};

class RayleighModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kRayleigh;
  }
  std::size_t parameter_count() const override { return 1; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits&) const override {
    return {{"mu", 0.0, 1.0}};
  }

 private:
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double log_mu = log_q_out.empty() ? 0.0 : std::log(mu);
    const std::size_t n = range_days(p_out, log_q_out);
    for (std::size_t i = 0; i < n; ++i) {
      // i^2 - (i-1)^2 = 2i - 1: the discrete Weibull of Eq (7) at shape 2,
      // i.e. a linearly increasing hazard exponent.
      const double exponent =
          2.0 * static_cast<double>(first_day + i) - 1.0;
      if (!p_out.empty()) p_out[i] = 1.0 - std::pow(mu, exponent);
      if (!log_q_out.empty()) log_q_out[i] = exponent * log_mu;
    }
  }
};

class LearningCurveModel final : public DetectionModel {
 public:
  DetectionModelKind kind() const override {
    return DetectionModelKind::kLearningCurve;
  }
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"mu", 0.0, 1.0}, {"theta", 0.0, limits.theta_max}};
  }

 private:
  // Detection skill ramps from ~0 on day 1 toward the asymptote mu — the
  // "testers learn the system" mirror image of model1 (which starts at
  // 1 - mu and saturates at 1).
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double mu = zeta[0];
    const double one_minus_mu = 1.0 - mu;
    const double theta = zeta[1];
    const std::size_t n = range_days(p_out, log_q_out);
    for (std::size_t i = 0; i < n; ++i) {
      const double theta_i = theta * static_cast<double>(first_day + i);
      if (!p_out.empty()) p_out[i] = mu * theta_i / (theta_i + 1.0);
      // q = (theta i (1 - mu) + 1) / (theta i + 1) exactly.
      if (!log_q_out.empty()) {
        log_q_out[i] =
            std::log(theta_i * one_minus_mu + 1.0) - std::log1p(theta_i);
      }
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
  std::size_t parameter_count() const override { return 2; }
  std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const override {
    return {{"shape", 0.0, limits.sb_shape_max},
            {"scale", 0.0, limits.sb_scale_max}};
  }

 private:
  // One log per day instead of two: log(scale + i - 1) at day i is exactly
  // the log(scale + i) computed at day i - 1, so the loop carries it, and
  // the range's first day seeds the carry.
  void fill(std::size_t first_day, std::span<const double> zeta,
            std::span<double> p_out,
            std::span<double> log_q_out) const override {
    const double shape = zeta[0];
    const double scale = zeta[1];
    const std::size_t n = range_days(p_out, log_q_out);
    double prev = std::log(scale + static_cast<double>(first_day - 1));
    for (std::size_t i = 0; i < n; ++i) {
      const double cur = std::log(scale + static_cast<double>(first_day + i));
      const double log_q = shape * (prev - cur);
      if (!p_out.empty()) p_out[i] = -std::expm1(log_q);
      if (!log_q_out.empty()) log_q_out[i] = log_q;
      prev = cur;
    }
  }
};

// Every kind in registry order: the paper's five, the library's two
// extensions, then the size-biased family's channel. The name functions
// walk this one list, so help and error text name exactly what parsing
// accepts.
constexpr std::array<DetectionModelKind, 8> kEveryKind = {
    DetectionModelKind::kConstant,        DetectionModelKind::kPadgettSpurrier,
    DetectionModelKind::kLogLogistic,     DetectionModelKind::kPareto,
    DetectionModelKind::kWeibull,         DetectionModelKind::kRayleigh,
    DetectionModelKind::kLearningCurve,
    DetectionModelKind::kSizeBiasedMultinomial,
};

}  // namespace

std::span<const DetectionModelKind> all_detection_model_kinds() {
  return std::span(kEveryKind).first(5);
}

std::span<const DetectionModelKind> extended_detection_model_kinds() {
  return std::span(kEveryKind).subspan(5, 2);
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
  for (const auto kind : kEveryKind) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

std::vector<std::string> detection_model_names() {
  std::vector<std::string> names;
  for (const auto kind : kEveryKind) names.push_back(to_string(kind));
  return names;
}

double DetectionModel::probability(std::size_t day,
                                   std::span<const double> zeta) const {
  SRM_EXPECTS(day >= 1 && zeta.size() == parameter_count(),
              "probability requires a 1-based day and a full zeta vector");
  double p = 0.0;
  fill(day, zeta, std::span(&p, 1), {});
  return p;
}

void DetectionModel::probabilities_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "probabilities_into requires a full zeta vector and "
              "out.size() >= days");
  fill(1, zeta, out.first(days), {});
}

void DetectionModel::log_survivals_into(std::size_t days,
                                        std::span<const double> zeta,
                                        std::span<double> out) const {
  SRM_EXPECTS(zeta.size() == parameter_count() && out.size() >= days,
              "log_survivals_into requires a full zeta vector and "
              "out.size() >= days");
  fill(1, zeta, {}, out.first(days));
}

void DetectionModel::detection_into(std::size_t days,
                                    std::span<const double> zeta,
                                    std::span<double> probabilities_out,
                                    std::span<double> log_survivals_out)
    const {
  SRM_EXPECTS(zeta.size() == parameter_count() &&
                  probabilities_out.size() >= days &&
                  log_survivals_out.size() >= days,
              "detection_into requires a full zeta vector and both out "
              "buffers >= days");
  fill(1, zeta, probabilities_out.first(days), log_survivals_out.first(days));
}

std::vector<double> DetectionModel::probabilities(
    std::size_t days, std::span<const double> zeta) const {
  SRM_EXPECTS(zeta.size() == parameter_count(),
              "probabilities requires a full zeta vector");
  std::vector<double> p(days);
  fill(1, zeta, p, {});
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
