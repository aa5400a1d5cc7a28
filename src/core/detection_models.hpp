// The five software bug-detection-probability models of Section 2.2
// (Eqs 3-7), following Zhao-Dohi-Okamura's catalogue:
//
//   model0  homogeneous:        p_i = mu
//   model1  Padgett-Spurrier:   p_i = 1 - mu / (theta i + 1)
//   model2  discrete log-logistic hazard:
//                               p_i = (1 - mu) / (mu^{ln i - gamma + 1} + 1)
//   model3  discrete Pareto hazard:
//                               p_i = 1 - mu^{ln(i+2)/(i+1)}
//   model4  discrete Weibull hazard:
//                               p_i = 1 - mu^{i^omega - (i-1)^omega}
//
// Each model maps a parameter vector zeta into day-indexed probabilities.
// The hyperprior of every component is uniform on its support (Section 3.3);
// unbounded supports (theta, gamma) are capped by configurable upper limits,
// which the paper tunes by WAIC minimization.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace srm::core {

enum class DetectionModelKind {
  kConstant = 0,        ///< model0
  kPadgettSpurrier = 1, ///< model1
  kLogLogistic = 2,     ///< model2
  kPareto = 3,          ///< model3
  kWeibull = 4,         ///< model4
  // --- library extensions beyond the paper's five (see ablation bench) ---
  kRayleigh = 5,        ///< model5: discrete Rayleigh hazard — the
                        ///< Nakagawa-Osaki discrete Weibull with shape 2,
                        ///< p_i = 1 - mu^{i^2 - (i-1)^2} (increasing)
  kLearningCurve = 6,   ///< model6: saturating learning ramp,
                        ///< p_i = mu * theta i / (theta i + 1) — detection
                        ///< skill grows from 0 toward mu
  kSizeBiasedMultinomial = 7,  ///< "multinomial": the size-biased family's
                               ///< detection likelihood (core/size_biased.hpp)
                               ///< — per-bug Gamma(shape, scale)
                               ///< detectability thinned day by day,
                               ///< p_i = 1 - ((scale+i-1)/(scale+i))^shape,
                               ///< a decreasing hazard (big bugs found
                               ///< first). Only valid under the sizebiased
                               ///< family.
};

/// The paper's five kinds (model0..model4), in paper order.
std::span<const DetectionModelKind> all_detection_model_kinds();

/// The extension kinds (model5..model6) added by this library.
std::span<const DetectionModelKind> extended_detection_model_kinds();

/// "model0" .. "model4".
std::string to_string(DetectionModelKind kind);

/// Inverse of to_string over BOTH registries (paper + extensions): the kind
/// whose to_string equals `name`, or nullopt. Callers that accept model
/// names (CLI flags, artifact deserialization) resolve through this so the
/// accepted-name set can never drift from the enum.
std::optional<DetectionModelKind> detection_model_from_string(
    const std::string& name);

/// Every registered kind name ("model0", "model1", ...), in registry order
/// (paper kinds first, then extensions) — the single source of truth for
/// help and error text listing the accepted --model values.
std::vector<std::string> detection_model_names();

/// Support bounds for one component of zeta. The uniform hyperprior lives
/// on the open interval (lower, upper).
struct ParameterSupport {
  std::string name;
  double lower = 0.0;
  double upper = 1.0;
};

/// Upper limits of the unbounded uniform hyperpriors (paper Section 3.3,
/// tuned by WAIC in Section 5.1). gamma in model2 is symmetric, so its
/// support is (-gamma_bound, +gamma_bound).
struct DetectionModelLimits {
  double theta_max = 10.0;
  double gamma_bound = 10.0;
  /// Supports of the size-biased multinomial detection parameters
  /// (core/size_biased.hpp). Serialized omit-if-default so every artifact
  /// identity that predates the size-biased family keeps its exact bytes.
  double sb_shape_max = 20.0;
  double sb_scale_max = 200.0;
};

/// A bug-detection-probability model: zeta -> {p_1, p_2, ...}.
class DetectionModel {
 public:
  virtual ~DetectionModel() = default;

  [[nodiscard]] virtual DetectionModelKind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t parameter_count() const = 0;
  /// Support of each zeta component under the given limits.
  [[nodiscard]] virtual std::vector<ParameterSupport> parameter_supports(
      const DetectionModelLimits& limits) const = 0;

  /// p_i for 1-based day i; result is guaranteed inside [0, 1].
  /// Preconditions: zeta.size() == parameter_count(), zeta inside support.
  [[nodiscard]] virtual double probability(std::size_t day,
                                           std::span<const double> zeta)
      const = 0;

  /// log(1 - p_i), computed WITHOUT forming p_i when a stable direct form
  /// exists. This matters for the power-form hazards (models 3/4/5): e.g.
  /// model5's q_i = mu^{2i-1} underflows double precision long before the
  /// analytic log q_i = (2i-1) log mu stops being finite, and the naive
  /// log1p(-probability(...)) would spuriously return -inf and poison the
  /// likelihood. The default implementation is the naive formula; models
  /// with power-form survival override it.
  [[nodiscard]] virtual double log_survival(std::size_t day,
                                            std::span<const double> zeta)
      const;

  // --- batch channels (one virtual call per probe) ----------------------
  //
  // The Gibbs kernel evaluates a full p_1..p_k / log q_1..log q_k sweep per
  // slice-sampler probe; the scalar channel pays one virtual dispatch per
  // day for that. The batch channel fills a caller-owned buffer in a single
  // virtual call, and the per-model overrides hoist the day-invariant
  // subexpressions (log mu, 1 - mu, day-indexed exponent tables).
  //
  // Bit-identity contract: every value written is bit-identical to the
  // scalar channel's result for the same (day, zeta) — overrides may only
  // hoist/cache/share subexpressions that the scalar formulas compute from
  // identical inputs, never reassociate them.

  /// Fills out[i-1] = probability(i, zeta) for i = 1..days.
  /// Preconditions: zeta.size() == parameter_count(), out.size() >= days.
  virtual void probabilities_into(std::size_t days,
                                  std::span<const double> zeta,
                                  std::span<double> out) const;

  /// Fills out[i-1] = log_survival(i, zeta) for i = 1..days.
  virtual void log_survivals_into(std::size_t days,
                                  std::span<const double> zeta,
                                  std::span<double> out) const;

  /// Both channels in one pass, sharing the per-day powers they have in
  /// common (the dominant cost for the power-form hazards). Same contract.
  virtual void detection_into(std::size_t days, std::span<const double> zeta,
                              std::span<double> probabilities_out,
                              std::span<double> log_survivals_out) const;

  /// Convenience: p_1..p_days (allocates; prefer probabilities_into in
  /// hot paths).
  [[nodiscard]] std::vector<double> probabilities(
      std::size_t days, std::span<const double> zeta) const;

  /// Convenience: log q_1..log q_days (allocates; prefer log_survivals_into
  /// in hot paths).
  [[nodiscard]] std::vector<double> log_survivals(
      std::size_t days, std::span<const double> zeta) const;
};

/// Factory for the five paper models (plus extensions).
std::unique_ptr<DetectionModel> make_detection_model(DetectionModelKind kind);

}  // namespace srm::core
