// The paper's 2 x 5 Bayesian discrete-time SRMs (Section 3): a prior on the
// initial bug content N (Poisson -> NHPP-based SRM, negative binomial ->
// NHMPP-based SRM) crossed with the five detection-probability models, all
// hyperparameters under non-informative uniform hyperpriors, sampled by a
// Gibbs scheme (Eqs 14-22) built on srm::mcmc.
//
// Gibbs conditionals (derived in DESIGN.md):
//   Poisson prior:
//     R = N - s_k | lambda0, zeta, x  ~ Poisson(lambda0 * prod q_i)  [exact]
//     lambda0 | N ~ TruncatedGamma(N + 1, 1, lambda_max)             [exact]
//     zeta_j | N, x  — slice sampling of the zeta-kernel of Eq (2)
//   Negative binomial prior:
//     R | alpha0, beta0, zeta, x ~ NB(alpha0 + s_k, beta_k)          [exact]
//     beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)                    [exact]
//     alpha0 | N, beta0 — slice sampling on (0, alpha_max)
//     zeta_j | N, x     — slice sampling
//   The default collapsed scheme integrates R out of the other moves; its
//   NB zeta block holds beta' = beta0 / (1 - (1-beta0) Q) fixed (DESIGN.md).
//
// State vector layout (also the parameter-name order):
//   Poisson prior:  [residual, lambda0, zeta...]
//   NB prior:       [residual, alpha0, beta0, zeta...]
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

class BayesianSrm final : public SrmModel, public mcmc::LaneGibbsModel {
 public:
  /// `vectorized` routes the detection batch channels and the pointwise
  /// log-likelihood fill through the support/simd kernels (models that
  /// have them; see GibbsOptions::vectorized). Default off: the scalar
  /// path stays bit-identical to earlier releases.
  BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
              data::BugCountData data, HyperPriorConfig config = {},
              bool vectorized = false);

  /// Per-chain scratch buffers for a full Gibbs scan, sized once from
  /// days() and parameter_count(). Threading one of these through update()
  /// makes steady-state sampling allocation-free; the buffers carry no
  /// sampler state, so draws are bit-identical with or without one.
  class Workspace final : public mcmc::GibbsWorkspace {
   public:
    explicit Workspace(const BayesianSrm& model);

   private:
    friend class BayesianSrm;
    std::vector<double> zeta;           ///< zeta block under update
    std::vector<double> probe;          ///< zeta with one coordinate probed
    std::vector<double> proposal;       ///< mode-jump candidate
    std::vector<double> probabilities;  ///< p_1..p_k channel
    std::vector<double> log_survivals;  ///< log q_1..log q_k channel
    std::vector<double> log_p;          ///< log p_i sweep (vectorized fill)
    std::vector<double> log_1mp;        ///< log(1-p_i) sweep (vectorized)
    /// Data sums of the collapsed zeta-density, prepared per coordinate;
    /// built by the first collapsed scan.
    std::unique_ptr<CollapsedEvaluator> evaluator;
  };

  /// Shared scratch for a pack of up to kChainLanes chains advancing in
  /// SIMD lanes (GibbsOptions::chain_lanes). The zeta/probe/proposal
  /// blocks are parameter-major SoA (`[param * lane_width + lane]`), the
  /// detection channels day-major SoA with the same stride, and the
  /// observation columns are cached as exact doubles so the masked lane
  /// reductions never re-convert. Like Workspace, it carries no sampler
  /// state.
  class LaneWorkspace final : public mcmc::GibbsWorkspace {
   public:
    LaneWorkspace(const BayesianSrm& model, std::size_t lane_count);

   private:
    friend class BayesianSrm;
    std::size_t lane_count;             ///< chains actually packed (1..4)
    std::vector<double> zeta_soa;       ///< zeta blocks under update
    std::vector<double> probe_soa;      ///< zeta with one coordinate probed
    std::vector<double> proposal_soa;   ///< mode-jump candidates
    std::vector<double> probabilities;  ///< p channel, day-major SoA
    std::vector<double> log_survivals;  ///< log q channel, day-major SoA
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

  // --- mcmc::LaneGibbsModel (see src/core/bayes_srm_lanes.cpp) ----------
  [[nodiscard]] std::size_t lane_width() const override;
  [[nodiscard]] std::unique_ptr<mcmc::GibbsWorkspace> make_lane_workspace(
      std::size_t lane_count) const override;
  void update_lanes(std::size_t lane_count,
                    std::vector<double>* const* states,
                    random::Rng* const* rngs,
                    mcmc::GibbsWorkspace& workspace) const override;

  // --- core::SrmModel ----------------------------------------------------
  [[nodiscard]] PriorKind family() const override { return prior_; }
  /// Index of the first detection-model parameter.
  [[nodiscard]] std::size_t zeta_offset() const override {
    return prior_ == PriorKind::kPoisson ? 2 : 3;
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
  [[nodiscard]] bool is_scan_workspace(
      const mcmc::GibbsWorkspace& workspace) const override;
  void pointwise_row(std::span<const double> state,
                     mcmc::GibbsWorkspace& workspace,
                     std::span<double> out) const override;

  // --- accessors ----------------------------------------------------------
  [[nodiscard]] PriorKind prior() const { return prior_; }

  // --- derived quantities -------------------------------------------------
  /// p_1..p_k for the given detection parameters.
  [[nodiscard]] std::vector<double> detection_probabilities(
      std::span<const double> zeta) const;

  /// log P(X_i = x_i | omega) for every observed day, with omega read from a
  /// sampled state vector — the WAIC ingredient (Eqs 24-25).
  [[nodiscard]] std::vector<double> pointwise_log_likelihood(
      std::span<const double> state) const;

  /// Allocation-free variant: fills out[i-1] for day i = 1..days() reusing
  /// the workspace's probability buffer. The WAIC matrix evaluates this per
  /// (draw, day); one workspace per worker keeps the pass allocation-free.
  void pointwise_log_likelihood_into(std::span<const double> state,
                                     Workspace& workspace,
                                     std::span<double> out) const;

  /// In-scan variant for streaming sinks: when `workspace` is the one the
  /// model's update() just ran with and its detection buffers are still
  /// fresh for `state` (collapsed scheme), the row is produced from those
  /// buffers without re-evaluating the detection model; otherwise it falls
  /// back to the full recomputation. Either way the output is bit-identical
  /// to pointwise_log_likelihood_into (the batch detection channel's
  /// bit-identity contract). Precondition: `state` is the draw the
  /// workspace's last update() produced, or the workspace was never
  /// updated (fallback path).
  void pointwise_into(std::span<const double> state, Workspace& workspace,
                      std::span<double> out) const;

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
  /// beta' fixed through the block, mapping beta0 out and back.
  [[nodiscard]] double update_zeta_collapsed(std::vector<double>& state,
                                             random::Rng& rng,
                                             Workspace& workspace) const;
  /// Collapsed marginal log-density of zeta from base(zeta) and
  /// log Q = sum_i log q_i: lambda0 integrated out (Poisson), or at fixed
  /// (alpha0, beta' = `thinned`) (NB). Shared by the scalar and lane scans.
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

  // --- lane-parallel scan internals (src/core/bayes_srm_lanes.cpp) ------
  /// prod q_i per lane at ws.zeta_soa, through the lane detection channel.
  void lane_survivals(LaneWorkspace& ws, double* survivals) const;
  /// Collapsed marginal log-density of each lane's zeta block in
  /// `zeta_soa` (the lane analogue of update_zeta_collapsed's
  /// log_density_of). Only lanes in `active` are written; `thinned` holds
  /// the per-lane NB beta'.
  void collapsed_density_lanes(const double* zeta_soa, unsigned active,
                               const double* thinned, LaneWorkspace& ws,
                               double* out) const;
  void update_zeta_collapsed_lanes(std::vector<double>* const* states,
                                   random::Rng* const* rngs,
                                   LaneWorkspace& ws,
                                   const double* thinned) const;
  void update_zeta_lanes(std::vector<double>* const* states,
                         random::Rng* const* rngs, LaneWorkspace& ws) const;

  /// Shared tail of the pointwise fills: combines the fresh probability
  /// buffer in `workspace` into per-day log-likelihood terms. The scalar
  /// path is the historical per-day loop; the vectorized path sweeps
  /// log(p) / log(1-p) through the simd kernels first.
  void fill_pointwise(std::int64_t initial_bugs, Workspace& workspace,
                      std::span<double> out) const;

  PriorKind prior_;
  std::unique_ptr<DetectionModel> model_;
  data::BugCountData data_;
  HyperPriorConfig config_;
  bool vectorized_ = false;
  std::vector<ParameterSupport> zeta_supports_;
};

}  // namespace srm::core
