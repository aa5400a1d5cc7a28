// The paper's 2 x 5 Bayesian discrete-time SRMs (Section 3): a prior on the
// initial bug content N (Poisson -> NHPP-based SRM, negative binomial ->
// NHMPP-based SRM) crossed with the five detection-probability models, all
// hyperparameters under non-informative uniform hyperpriors, sampled by a
// Gibbs scheme (Eqs 14-22) built on srm::mcmc.
//
// Every registered family runs this class. The size-biased family
// (Dey-Chakraborty, arXiv:2202.08107 / 2406.04360) is the Poisson
// bug-content layer with its multinomial detection channel
// (core/detection_models.hpp): the day counts given N factorize into the
// sequential-binomial likelihood of Eq (2), so the Poisson conditionals
// below apply verbatim.
//
// Gibbs conditionals (derived in DESIGN.md):
//   Poisson bug content (families poisson, sizebiased):
//     R = N - s_k | lambda0, zeta, x  ~ Poisson(lambda0 * prod q_i)  [exact]
//     lambda0 | N ~ Gamma(N + 1, 1) truncated to (0, lambda_max)     [exact]
//     zeta_j | N, x  — slice sampling of the zeta-kernel of Eq (2)
//   Negative binomial bug content (family negbin):
//     R | alpha0, beta0, zeta, x ~ NB(alpha0 + s_k, beta_k)          [exact]
//     beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)                    [exact]
//     alpha0 | N, beta0 — slice sampling on (0, alpha_max)
//     zeta_j | N, x     — slice sampling
//   The default collapsed scheme integrates R out of the other moves; its
//   NB zeta block holds beta' = beta0 / (1 - (1-beta0) Q) fixed (DESIGN.md).
//
// State vector layout (also the parameter-name order):
//   Poisson bug content:  [residual, lambda0, zeta...]
//                         (sizebiased: zeta = (shape, scale))
//   NB bug content:       [residual, alpha0, beta0, zeta...]
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/collapsed_evaluator.hpp"
#include "core/detection_models.hpp"
#include "core/model_family.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"

namespace srm::core {

class BayesianSrm final : public SrmModel {
 public:
  /// Throws support::InvalidArgument unless the family `prior` accepts
  /// `model_kind` (validate_family_model) and the family's hyperprior
  /// limits are positive.
  BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
              data::BugCountData data, HyperPriorConfig config = {});

  /// Per-chain scratch buffers for a full Gibbs scan, sized once from
  /// days() and parameter_count(), plus the collapsed scan's burn-in record
  /// and, once end_burn_in() fits it, the chain's frozen zeta kernel.
  /// Threading one of these through update() makes steady-state sampling
  /// allocation-free. Until the kernel is frozen the workspace carries no
  /// sampler state, so draws are bit-identical with or without one.
  class Workspace final : public mcmc::GibbsWorkspace {
   public:
    explicit Workspace(const BayesianSrm& model);

    /// True once end_burn_in() froze the post-burn-in kernel here.
    [[nodiscard]] bool kernel_frozen() const { return !slice_widths.empty(); }

   private:
    friend class BayesianSrm;
    std::vector<double> zeta;           ///< zeta block under update
    std::vector<double> probe;          ///< zeta with one coordinate probed
    std::vector<double> proposal;       ///< mode-jump candidate
    std::vector<double> offset;         ///< mixture-jump normal draw
    std::vector<double> probabilities;  ///< p_1..p_k channel
    std::vector<double> log_survivals;  ///< log q_1..log q_k channel
    /// Data sums of the collapsed zeta-density, prepared per coordinate;
    /// built by the first collapsed scan.
    std::unique_ptr<CollapsedEvaluator> evaluator;

    /// Burn-in record of the collapsed scan, allocated by its first scan:
    /// one row per scan for the last 1 024 scans, each holding zeta after
    /// the scan, every slice move's |delta zeta_j| and the count of
    /// accepted prior-box jumps.
    std::unique_ptr<double[]> record;
    std::size_t recorded_scans = 0;

    /// The frozen kernel; every vector stays empty until end_burn_in().
    std::vector<double> slice_widths;  ///< per zeta coordinate
    /// Mixture jump: Gaussian mean m and lower Cholesky factor of 4 Sigma
    /// (row-major) in scaled-logit coordinates, and the log constants of
    /// both mixture components' densities in zeta.
    std::vector<double> jump_mean;
    std::vector<double> jump_factor;
    double jump_log_gauss = 0.0;
    double jump_log_box = 0.0;
    int box_jumps = 0;  ///< prior-box jumps kept per frozen scan
  };

  // --- mcmc::GibbsModel -------------------------------------------------
  [[nodiscard]] std::vector<std::string> parameter_names() const override;
  [[nodiscard]] std::vector<double> initial_state(
      random::Rng& rng) const override;
  [[nodiscard]] std::unique_ptr<mcmc::GibbsWorkspace> make_workspace()
      const override;
  void update(std::vector<double>& state, random::Rng& rng,
              mcmc::GibbsWorkspace* workspace) const override;
  using mcmc::GibbsModel::update;
  /// Collapsed scheme: fits the post-burn-in zeta kernel from the second
  /// half of the burn-in the workspace recorded and freezes it there
  /// (DESIGN.md, Multimodality). Leaves the burn-in kernel in place when
  /// that half holds fewer than 10 scans or its scaled-logit covariance is
  /// not positive definite; a no-op for the vanilla scheme.
  void end_burn_in(mcmc::GibbsWorkspace* workspace) const override;

  // --- core::SrmModel ----------------------------------------------------
  [[nodiscard]] PriorKind family() const override { return prior_; }
  /// Index of the first detection-model parameter.
  [[nodiscard]] std::size_t zeta_offset() const override {
    return poisson_content_ ? 2 : 3;
  }
  [[nodiscard]] std::size_t state_size() const override {
    return zeta_offset() + model_->parameter_count();
  }
  [[nodiscard]] const DetectionModel& detection_model() const override {
    return *model_;
  }
  [[nodiscard]] const data::BugCountData& data() const override {
    return data_;
  }
  [[nodiscard]] const HyperPriorConfig& config() const override {
    return config_;
  }
  void pointwise_row(std::span<const double> state,
                     mcmc::GibbsWorkspace& workspace,
                     std::span<double> out) const override;

  // --- derived quantities -------------------------------------------------
  /// p_1..p_k for the given detection parameters.
  [[nodiscard]] std::vector<double> detection_probabilities(
      std::span<const double> zeta) const;

  /// log P(X_i = x_i | omega) for every observed day, with omega read from a
  /// sampled state vector — the WAIC ingredient (Eqs 24-25). Allocating
  /// convenience over pointwise_row.
  [[nodiscard]] std::vector<double> pointwise_log_likelihood(
      std::span<const double> state) const;

  /// Unnormalized log joint density of (state, data) — prior * likelihood.
  /// Exposed for testing the Gibbs conditionals against brute force.
  [[nodiscard]] double log_joint(std::span<const double> state) const;

 private:
  void update_with(std::vector<double>& state, random::Rng& rng,
                   Workspace& workspace) const;
  void update_residual(std::vector<double>& state, random::Rng& rng,
                       double survival) const;
  /// prod q_i computed through the detection model's batch log-survival
  /// channel (exact even where q_i underflows); one virtual call per
  /// evaluation, buffered in the workspace.
  [[nodiscard]] double stable_survival(std::span<const double> zeta,
                                       Workspace& workspace) const;
  void update_hyperparameters(std::vector<double>& state,
                              random::Rng& rng) const;
  void update_zeta(std::vector<double>& state, random::Rng& rng,
                   Workspace& workspace) const;
  /// Collapsed hyperparameter draws at the state's Q = prod q_i.
  void update_hyperparameters_collapsed(std::vector<double>& state,
                                        random::Rng& rng,
                                        double survival) const;
  /// Collapsed zeta block through the workspace's evaluator; returns
  /// Q = prod q_i at the accepted zeta. The NB prior holds its thinned
  /// beta' fixed through the block, mapping beta0 out and back. Runs the
  /// workspace's frozen kernel once there is one, and records the scan
  /// for end_burn_in() until then.
  [[nodiscard]] double update_zeta_collapsed(std::vector<double>& state,
                                             random::Rng& rng,
                                             Workspace& workspace) const;
  /// log q(zeta) of the frozen mixture-jump proposal density.
  [[nodiscard]] double mixture_log_density(std::span<const double> zeta,
                                           Workspace& workspace) const;
  /// Collapsed marginal log-density of zeta from base(zeta) and
  /// log Q = sum_i log q_i: lambda0 integrated out (Poisson), or at fixed
  /// (alpha0, beta' = `thinned`) (NB).
  [[nodiscard]] double collapsed_log_density(double base, double log_survival,
                                             double thinned) const;
  /// collapsed_log_density of evaluator sums; -inf where base is.
  [[nodiscard]] double collapsed_density(const CollapsedSums& sums,
                                         double thinned) const;
  /// NB thinning map beta0 -> beta' = beta0 / (1 - (1-beta0) Q): the success
  /// probability of the detected total s_k ~ NB(alpha0, beta'). Both maps
  /// and the NB zeta density floor 1 - Q at the same small constant.
  [[nodiscard]] static double thinned_beta(double beta0, double survival);
  /// Inverse map beta' -> beta0 = beta' (1-Q) / (1 - beta' Q), clamped to
  /// the open unit interval.
  [[nodiscard]] static double unthinned_beta(double thinned, double survival);

  [[nodiscard]] std::int64_t initial_bugs_of(
      std::span<const double> state) const;

  PriorKind prior_;
  /// Bug-content layer of the family: Poisson (poisson, sizebiased) or
  /// negative binomial (negbin).
  bool poisson_content_;
  std::unique_ptr<DetectionModel> model_;
  data::BugCountData data_;
  HyperPriorConfig config_;
  std::vector<ParameterSupport> zeta_supports_;
};

}  // namespace srm::core
