#include "core/bayes_srm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/conjugate.hpp"
#include "core/likelihood.hpp"
#include "mcmc/metropolis.hpp"
#include "mcmc/slice.hpp"
#include "random/samplers.hpp"
#include "support/error.hpp"
#include "support/fp.hpp"
#include "support/math.hpp"

namespace srm::core {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Floor on the detected fraction 1 - Q in the NB thinning map. Where every
// p_i is tiny, log q_i carries absolute rounding error that 1 - Q cannot
// resolve, and the (1-Q)^{-(s_k-1)} factor of the collapsed zeta density
// would amplify it without bound; the posterior mass below the floor is of
// order the floor itself.
constexpr double kMinDetected = 1e-9;

double detected_fraction(double survival) {
  return std::max(1.0 - survival, kMinDetected);
}

// Keeps initial draws strictly inside an open support.
double interior_uniform(random::Rng& rng, double lo, double hi) {
  const double margin = 0.05 * (hi - lo);
  return rng.uniform(lo + margin, hi - margin);
}

// The collapsed zeta kernel (DESIGN.md, Multimodality). Burn-in scans
// slice each coordinate and end with kBoxJumps prior-box proposals. The
// kernel frozen at the end of burn-in replaces the coordinate slices with
// one elliptical slice move against N(m, 4 Sigma) in scaled-logit
// coordinates, keeps the prior-box proposals only where burn-in accepted at
// least kMinBoxAcceptance of them, and ends with kMixtureJumps proposals
// from the defensive mixture
// kMixtureBoxWeight * Uniform(box) + (1 - kMixtureBoxWeight) * N(m, 4 Sigma).
constexpr int kBoxJumps = 5;
constexpr int kMixtureJumps = 2;
constexpr double kMixtureBoxWeight = 0.2;
constexpr double kMixtureScale = 2.0;  // sd multiplier: covariance 4 Sigma
constexpr double kMinBoxAcceptance = 0.01;
// The fit reads the second half of the burn-in scans, at most the last
// kRecordRows of them, and needs kMinFitRows.
constexpr std::size_t kRecordRows = 1024;
constexpr std::size_t kMinFitRows = 10;

// u = log((z - lo) / (hi - z)), the scaled logit of z in (lo, hi).
double scaled_logit(double z, const ParameterSupport& support) {
  return std::log(z - support.lower) - std::log(support.upper - z);
}

// Its inverse; rounds onto a bound where |u| is large.
double inverse_scaled_logit(double u, const ParameterSupport& support) {
  return support.lower +
         (support.upper - support.lower) / (1.0 + std::exp(-u));
}
}  // namespace

BayesianSrm::BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
                         data::BugCountData data, HyperPriorConfig config)
    : prior_(prior),
      poisson_content_(prior == PriorKind::kPoisson ||
                       prior == PriorKind::kSizeBiased),
      model_(make_detection_model(model_kind)),
      data_(std::move(data)),
      config_(config),
      zeta_supports_(model_->parameter_supports(config.limits)) {
  validate_family_model(prior, model_kind);
  SRM_EXPECTS(config.lambda_max > 0.0, "lambda_max must be positive");
  if (prior == PriorKind::kSizeBiased) {
    SRM_EXPECTS(config.limits.sb_shape_max > 0.0,
                "sb_shape_max must be positive");
    SRM_EXPECTS(config.limits.sb_scale_max > 0.0,
                "sb_scale_max must be positive");
  } else {
    SRM_EXPECTS(config.alpha_max > 0.0, "alpha_max must be positive");
    SRM_EXPECTS(config.limits.theta_max > 0.0, "theta_max must be positive");
    SRM_EXPECTS(config.limits.gamma_bound > 0.0,
                "gamma_bound must be positive");
  }
}

BayesianSrm::Workspace::Workspace(const BayesianSrm& model)
    : zeta(model.model_->parameter_count(), 0.0),
      probe(model.model_->parameter_count(), 0.0),
      proposal(model.model_->parameter_count(), 0.0),
      offset(model.model_->parameter_count(), 0.0),
      ellipse(3 * model.model_->parameter_count(), 0.0),
      probabilities(model.data_.days(), 0.0),
      log_survivals(model.data_.days(), 0.0) {}

std::unique_ptr<mcmc::GibbsWorkspace> BayesianSrm::make_workspace() const {
  return std::make_unique<Workspace>(*this);
}

std::vector<std::string> BayesianSrm::parameter_names() const {
  std::vector<std::string> names{"residual"};
  if (poisson_content_) {
    names.emplace_back("lambda0");
  } else {
    names.emplace_back("alpha0");
    names.emplace_back("beta0");
  }
  for (const auto& support : zeta_supports_) names.push_back(support.name);
  return names;
}

std::vector<double> BayesianSrm::initial_state(random::Rng& rng) const {
  std::vector<double> state(state_size(), 0.0);
  if (poisson_content_) {
    state[1] = interior_uniform(rng, 0.0, config_.lambda_max);
  } else {
    state[1] = interior_uniform(rng, 0.0, config_.alpha_max);
    state[2] = interior_uniform(rng, 0.0, 1.0);
  }
  for (std::size_t j = 0; j < zeta_supports_.size(); ++j) {
    state[zeta_offset() + j] =
        interior_uniform(rng, zeta_supports_[j].lower, zeta_supports_[j].upper);
  }
  // Draw the residual from its exact conditional so the state is coherent.
  Workspace scratch(*this);
  const auto zeta =
      std::span<const double>(state).subspan(zeta_offset());
  update_residual(state, rng, stable_survival(zeta, scratch));
  return state;
}

void BayesianSrm::update(std::vector<double>& state, random::Rng& rng,
                         mcmc::GibbsWorkspace* workspace) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  if (workspace != nullptr) {
    auto* ws = dynamic_cast<Workspace*>(workspace);
    SRM_EXPECTS(ws != nullptr,
                "update() requires a workspace from make_workspace()");
    update_with(state, rng, *ws);
    return;
  }
  Workspace scratch(*this);
  update_with(state, rng, scratch);
}

void BayesianSrm::update_with(std::vector<double>& state, random::Rng& rng,
                              Workspace& ws) const {
  if (config_.scheme == SamplerScheme::kCollapsed) {
    // R is integrated out of the zeta and hyperparameter conditionals and
    // re-drawn exactly at the end of the scan, eliminating the R-scale
    // coupling that slows the vanilla scheme. The survival product the
    // zeta block carries to its accepted point serves the hyperparameters
    // and R.
    const double survival = update_zeta_collapsed(state, rng, ws);
    update_hyperparameters_collapsed(state, rng, survival);
    update_residual(state, rng, survival);
  } else {
    const auto zeta = std::span<const double>(state).subspan(zeta_offset());
    update_residual(state, rng, stable_survival(zeta, ws));
    update_hyperparameters(state, rng);
    update_zeta(state, rng, ws);
  }
}

void BayesianSrm::update_residual(std::vector<double>& state,
                                  random::Rng& rng, double survival) const {
  if (poisson_content_) {
    const auto posterior = poisson_residual_posterior(
        std::max(state[1], 1e-12), data_, survival);
    state[residual_index()] = static_cast<double>(posterior.sample(rng));
  } else {
    const auto posterior = negative_binomial_residual_posterior(
        std::max(state[1], 1e-12), std::clamp(state[2], 1e-12, 1.0 - 1e-12),
        data_, survival);
    state[residual_index()] = static_cast<double>(posterior.sample(rng));
  }
}

double BayesianSrm::stable_survival(std::span<const double> zeta,
                                    Workspace& ws) const {
  // prod q_i via the models' stable log-survival channel; a result that
  // underflows to 0 is the correct limit (residual posterior collapses).
  // One batch virtual call fills the workspace buffer, then the summation
  // runs in the exact day order the per-day loop used.
  const std::size_t days = data_.days();
  model_->log_survivals_into(days, zeta, ws.log_survivals);
  double sum = 0.0;
  for (std::size_t i = 0; i < days; ++i) {
    const double log_q = ws.log_survivals[i];
    if (log_q == kNegInf) return 0.0;
    sum += log_q;
  }
  return std::exp(sum);
}

void BayesianSrm::update_hyperparameters(std::vector<double>& state,
                                         random::Rng& rng) const {
  const std::int64_t n = initial_bugs_of(state);
  if (poisson_content_) {
    // p(lambda0 | N) ∝ pi(lambda0) lambda0^N e^{-lambda0} on (0, lambda_max):
    // Gamma(N + 1, 1) truncated to that interval under the uniform
    // hyperprior, shape N + 1/2 under the Jeffreys variant pi ∝ lambda^{-1/2}.
    const double shape =
        static_cast<double>(n) + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    state[1] = random::sample_truncated_gamma(rng, shape, 1.0,
                                              config_.lambda_max);
  } else {
    // beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)  [exact].
    const double alpha0 = std::max(state[1], 1e-12);
    state[2] = random::sample_beta(rng, alpha0 + 1.0,
                                   static_cast<double>(n) + 1.0);
    state[2] = std::clamp(state[2], 1e-12, 1.0 - 1e-12);
    // alpha0 | N, beta0 ∝ Gamma(N + alpha0)/Gamma(alpha0) * beta0^{alpha0}.
    const double beta0 = state[2];
    const double nd = static_cast<double>(n);
    const auto log_density = [nd, beta0](double a) {
      if (a <= 0.0) return kNegInf;
      return math::lgamma(nd + a) - math::lgamma(a) + a * std::log(beta0);
    };
    mcmc::SliceOptions options;
    options.lower = 1e-10;
    options.upper = config_.alpha_max;
    options.initial_width = config_.alpha_max / 10.0;
    state[1] = mcmc::slice_sample(rng, std::clamp(state[1], options.lower,
                                                  options.upper),
                                  log_density, options);
  }
}

void BayesianSrm::update_zeta(std::vector<double>& state, random::Rng& rng,
                              Workspace& ws) const {
  const std::int64_t n = initial_bugs_of(state);
  const std::size_t days = data_.days();
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  // The probe buffer mirrors zeta except at the coordinate under update:
  // each density evaluation writes only probe[j] instead of copying the
  // whole vector, and the coordinate is restored after its slice move.
  auto& probe = ws.probe;
  probe.assign(zeta.begin(), zeta.end());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    const auto& support = zeta_supports_[j];
    const auto log_density = [&](double value) {
      if (value <= support.lower || value >= support.upper) return kNegInf;
      probe[j] = value;
      model_->detection_into(days, probe, ws.probabilities,
                             ws.log_survivals);
      return log_likelihood_zeta_kernel(data_, n, ws.probabilities,
                                        ws.log_survivals);
    };
    mcmc::SliceOptions options;
    options.lower = support.lower;
    options.upper = support.upper;
    options.initial_width = (support.upper - support.lower) / 10.0;
    zeta[j] = mcmc::slice_sample(
        rng,
        std::clamp(zeta[j], support.lower + 1e-12, support.upper - 1e-12),
        log_density, options);
    probe[j] = zeta[j];
    state[zeta_offset() + j] = zeta[j];
  }
}

double BayesianSrm::thinned_beta(double beta0, double survival) {
  return beta0 / (beta0 + (1.0 - beta0) * detected_fraction(survival));
}

double BayesianSrm::unthinned_beta(double thinned, double survival) {
  const double detected = detected_fraction(survival);
  return std::clamp(thinned * detected / ((1.0 - thinned) + thinned * detected),
                    1e-12, 1.0 - 1e-12);
}

double BayesianSrm::collapsed_log_density(double base, double log_survival,
                                          double thinned) const {
  const double s_k = static_cast<double>(data_.total());
  const double survival =
      std::isfinite(log_survival) ? std::exp(log_survival) : 0.0;
  if (poisson_content_) {
    // lambda0 is integrated out as well (its conditional is a truncated
    // gamma, so the normalizer is available in closed form):
    //   p(zeta | x) ∝ base(zeta) * Gamma(shape) (1-Q)^{-shape}
    //                 * P(shape, lambda_max (1-Q)),
    // with shape = s_k + 1 (uniform hyperprior) or s_k + 1/2 (Jeffreys).
    const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    const double rate = std::max(1.0 - survival, 1e-300);
    return base - shape * std::log(rate) +
           math::log_regularized_gamma_p(shape, config_.lambda_max * rate);
  }
  // At fixed (alpha0, beta'): base(zeta) (1-Q)^{-s_k} is the multinomial
  // law of the day counts given s_k, and (1-Q)/(1-beta' Q)^2 is the
  // Jacobian of beta0 -> beta'.
  const double detected = detected_fraction(survival);
  return base - (s_k - 1.0) * std::log(detected) -
         2.0 * std::log((1.0 - thinned) + thinned * detected);
}

void BayesianSrm::update_hyperparameters_collapsed(std::vector<double>& state,
                                                   random::Rng& rng,
                                                   double survival) const {
  const double s_k = static_cast<double>(data_.total());
  if (poisson_content_) {
    // p(lambda0 | zeta, x) ∝ pi(lambda0) lambda0^{s_k} e^{-lambda0 (1-Q)}:
    // Gamma(s_k + 1, 1 - Q) truncated to (0, lambda_max) under the uniform
    // hyperprior (shape s_k + 1/2 for Jeffreys). Rate is clamped away from 0
    // for the degenerate no-detection case Q = 1.
    const double shape = s_k + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    const double rate = std::max(1.0 - survival, 1e-12);
    state[1] =
        random::sample_truncated_gamma(rng, shape, rate, config_.lambda_max);
  } else {
    // p(beta0 | alpha0, zeta, x) ∝ beta0^{alpha0} (1-beta0)^{s_k}
    //                              (1 - (1-beta0) Q)^{-(s_k+alpha0)}.
    const double q = survival;
    {
      const double alpha0 = std::max(state[1], 1e-12);
      const auto log_density = [&](double b) {
        if (b <= 0.0 || b >= 1.0) return kNegInf;
        const double z = std::clamp((1.0 - b) * q, 0.0, 1.0 - 1e-16);
        return alpha0 * std::log(b) + s_k * std::log1p(-b) -
               (s_k + alpha0) * std::log1p(-z);
      };
      mcmc::SliceOptions options;
      options.lower = 1e-12;
      options.upper = 1.0 - 1e-12;
      options.initial_width = 0.1;
      state[2] = mcmc::slice_sample(
          rng, std::clamp(state[2], options.lower, options.upper),
          log_density, options);
    }
    // p(alpha0 | beta0, zeta, x) ∝ Gamma(s_k+alpha0)/Gamma(alpha0)
    //                              beta0^{alpha0} (1-z)^{-(s_k+alpha0)}.
    mcmc::SliceOptions alpha_options;
    alpha_options.lower = 1e-10;
    alpha_options.upper = config_.alpha_max;
    alpha_options.initial_width = config_.alpha_max / 10.0;
    {
      const double beta0 = state[2];
      const double z = std::clamp((1.0 - beta0) * q, 0.0, 1.0 - 1e-16);
      const double log_one_minus_z = std::log1p(-z);
      const auto log_density = [&](double a) {
        if (a <= 0.0) return kNegInf;
        return math::lgamma(s_k + a) - math::lgamma(a) + a * std::log(beta0) -
               (s_k + a) * log_one_minus_z;
      };
      state[1] = mcmc::slice_sample(
          rng,
          std::clamp(state[1], alpha_options.lower, alpha_options.upper),
          log_density, alpha_options);
    }
    // Ridge move: alpha0 at fixed thinned mean m = alpha0 (1-beta')/beta',
    // the direction the data leave loose (s_k ~ NB(alpha0, beta') pins m
    // far harder than alpha0). With beta' = alpha0/(alpha0 + m), the
    // thinned NB term times the Jacobians of beta0 -> beta' -> m reduces,
    // up to constants in m and Q, to the density below. m = 0 only where
    // beta' rounds to 1, a degenerate fibre the move leaves alone.
    const double thinned = thinned_beta(state[2], q);
    const double mean = state[1] * (1.0 - thinned) / thinned;
    if (mean > 0.0) {
      const double detected = detected_fraction(q);
      const auto log_density = [&](double a) {
        if (a <= 0.0) return kNegInf;
        return math::lgamma(s_k + a) - math::lgamma(a) +
               (a + 1.0) * std::log(a) - (a + s_k) * std::log(a + mean) -
               2.0 * std::log(mean + a * detected);
      };
      state[1] = mcmc::slice_sample(
          rng,
          std::clamp(state[1], alpha_options.lower, alpha_options.upper),
          log_density, alpha_options);
      state[2] = unthinned_beta(state[1] / (state[1] + mean), q);
    }
  }
}

double BayesianSrm::collapsed_density(const CollapsedSums& sums,
                                      double thinned) const {
  if (sums.base == kNegInf) return kNegInf;
  return collapsed_log_density(sums.base, sums.log_survival, thinned);
}

double BayesianSrm::update_zeta_collapsed(std::vector<double>& state,
                                          random::Rng& rng,
                                          Workspace& ws) const {
  auto& zeta = ws.zeta;
  zeta.assign(state.begin() + static_cast<long>(zeta_offset()), state.end());
  const std::size_t d = zeta.size();
  // Built at a workspace's first collapsed scan: scratch workspaces for
  // initial states and pointwise scoring never need one.
  if (!ws.evaluator) ws.evaluator = make_collapsed_evaluator(*model_, data_);
  auto& evaluator = *ws.evaluator;
  const bool frozen = ws.kernel_frozen();

  // Each distinct zeta is evaluated once: `current` holds the sums at the
  // state's zeta, and every accepted move carries its probe's sums along.
  CollapsedSums current = evaluator.evaluate(zeta);
  // The NB block moves at fixed thinned success probability beta'
  // (DESIGN.md): beta0 is mapped out at the starting Q and back at the
  // accepted one.
  const double thinned =
      poisson_content_ ? 0.0
                       : thinned_beta(state[2], std::exp(current.log_survival));
  double current_density = collapsed_density(current, thinned);

  // Whole-vector moves propose into `proposal` and install it on
  // acceptance with its sums.
  auto& proposal = ws.proposal;
  CollapsedSums proposed;
  const auto commit = [&] {
    zeta = proposal;  // equal sizes: copies in place, no allocation
    current = proposed;
    for (std::size_t j = 0; j < d; ++j) state[zeta_offset() + j] = zeta[j];
  };
  // Sums and collapsed density at `proposal`; -inf outside the open box.
  const auto evaluate_proposal = [&] {
    for (std::size_t j = 0; j < d; ++j) {
      if (proposal[j] <= zeta_supports_[j].lower ||
          proposal[j] >= zeta_supports_[j].upper) {
        return kNegInf;
      }
    }
    proposed = evaluator.evaluate(proposal);
    return collapsed_density(proposed, thinned);
  };

  if (frozen) {
    // One elliptical slice move in u = scaled logit of zeta against the
    // mixture's Gaussian component N(m, 4 Sigma). In u the target is
    // N(u; m, 4 Sigma) times pi(zeta) / g(zeta), with g that component's
    // density in zeta (logit Jacobian included), so the move's log
    // likelihood is the collapsed density minus log g.
    const auto u = std::span<double>(ws.ellipse).first(d);
    for (std::size_t j = 0; j < d; ++j) {
      u[j] = scaled_logit(zeta[j], zeta_supports_[j]);
    }
    double density = current_density;
    const auto draw = mcmc::elliptical_slice(
        rng, u, current_density - gaussian_log_density(zeta, ws),
        ws.jump_mean, ws.jump_factor,
        [&](std::span<const double> point) {
          for (std::size_t j = 0; j < d; ++j) {
            proposal[j] = inverse_scaled_logit(point[j], zeta_supports_[j]);
          }
          density = evaluate_proposal();
          if (density == kNegInf) return kNegInf;
          return density - gaussian_log_density(proposal, ws);
        },
        std::span<double>(ws.ellipse).subspan(d));
    // An accepted point is the last one evaluated.
    if (draw.moved) {
      commit();
      current_density = density;
    }
  } else {
    for (std::size_t j = 0; j < d; ++j) {
      const auto& support = zeta_supports_[j];
      evaluator.prepare(zeta, j);
      double probed = 0.0;
      CollapsedSums probed_sums;
      const auto log_density = [&](double value) {
        if (value <= support.lower || value >= support.upper) return kNegInf;
        probed = value;
        probed_sums = evaluator.probe(value);
        return collapsed_density(probed_sums, thinned);
      };
      mcmc::SliceOptions options;
      options.lower = support.lower;
      options.upper = support.upper;
      options.initial_width = (support.upper - support.lower) / 10.0;
      const double x0 =
          std::clamp(zeta[j], support.lower + 1e-12, support.upper - 1e-12);
      if (!fp::exactly(x0, zeta[j])) {
        current_density = log_density(x0);
        current = probed_sums;
      }
      const auto draw =
          mcmc::slice_sample(rng, x0, current_density, log_density, options);
      // An accepted draw is the last point probed; a collapsed bracket
      // returns x0, whose sums `current` already holds.
      if (fp::exactly(draw.x, probed)) current = probed_sums;
      current_density = draw.log_density;
      zeta[j] = draw.x;
      state[zeta_offset() + j] = draw.x;
    }
  }

  // Mode-jump moves: component-wise slice sampling cannot cross between
  // well-separated posterior modes (model2's (mu, gamma) surface is
  // genuinely multimodal on some datasets) and crawls along ridges (the
  // size-biased channel fits the early days almost equally well anywhere
  // on shape * log(1 + 1/scale) = const), so the scan ends with
  // independence-Metropolis proposals that target the same collapsed
  // marginal. Each attempt's weight is log pi - log q, so the MH ratio
  // carries q(x) / q(y); a prior-box proposal's q cancels.
  const auto draw_from_box = [&](random::Rng& proposal_rng) {
    for (std::size_t j = 0; j < d; ++j) {
      proposal[j] = proposal_rng.uniform(zeta_supports_[j].lower,
                                         zeta_supports_[j].upper);
    }
  };

  int box_accepted = 0;
  current_density = mcmc::independence_metropolis(
      rng, frozen ? ws.box_jumps : kBoxJumps, current_density,
      [&](random::Rng& proposal_rng) {
        draw_from_box(proposal_rng);
        return evaluate_proposal();
      },
      [&] {
        commit();
        ++box_accepted;
      });

  if (frozen) {
    const auto mixture_log_density = [&](std::span<const double> point) {
      return math::log_sum_exp(ws.jump_log_box,
                               gaussian_log_density(point, ws));
    };
    // u = m + F z with F the factor of 4 Sigma, mapped back into the box.
    const auto draw_from_gaussian = [&](random::Rng& proposal_rng) {
      auto& z = ws.offset;
      for (std::size_t i = 0; i < d; ++i) {
        z[i] = random::sample_normal(proposal_rng);
      }
      for (std::size_t i = 0; i < d; ++i) {
        double u = ws.jump_mean[i];
        for (std::size_t k = 0; k <= i; ++k) {
          u += ws.jump_factor[i * d + k] * z[k];
        }
        proposal[i] = inverse_scaled_logit(u, zeta_supports_[i]);
      }
    };
    mcmc::independence_metropolis(
        rng, kMixtureJumps, current_density - mixture_log_density(zeta),
        [&](random::Rng& proposal_rng) {
          if (proposal_rng.uniform() < kMixtureBoxWeight) {
            draw_from_box(proposal_rng);
          } else {
            draw_from_gaussian(proposal_rng);
          }
          const double density = evaluate_proposal();
          if (density == kNegInf) return kNegInf;
          return density - mixture_log_density(proposal);
        },
        commit);
  } else {
    // This scan's burn-in record row: zeta after the scan, then the
    // accepted box jumps.
    if (!ws.record) {
      ws.record =
          std::make_unique_for_overwrite<double[]>(kRecordRows * (d + 1));
    }
    double* const row =
        &ws.record[(ws.recorded_scans % kRecordRows) * (d + 1)];
    std::copy(zeta.begin(), zeta.end(), row);
    row[d] = box_accepted;
    ++ws.recorded_scans;
  }

  const double survival = std::exp(current.log_survival);
  if (!poisson_content_) {
    state[2] = unthinned_beta(thinned, survival);
  }
  return survival;
}

double BayesianSrm::gaussian_log_density(std::span<const double> zeta,
                                         Workspace& ws) const {
  // The Gaussian component's density in zeta is its density in u times
  // the Jacobian prod_j (hi_j - lo_j) / ((z_j - lo_j)(hi_j - z_j)); the
  // constant factors are in jump_log_gauss. Forward substitution turns
  // u - m into the standard-normal offset in place.
  const std::size_t d = zeta.size();
  auto& z = ws.offset;
  double log_gauss = ws.jump_log_gauss;
  for (std::size_t i = 0; i < d; ++i) {
    const auto& support = zeta_supports_[i];
    const double log_below = std::log(zeta[i] - support.lower);
    const double log_above = std::log(support.upper - zeta[i]);
    log_gauss -= log_below + log_above;
    double r = log_below - log_above - ws.jump_mean[i];
    for (std::size_t k = 0; k < i; ++k) r -= ws.jump_factor[i * d + k] * z[k];
    z[i] = r / ws.jump_factor[i * d + i];
    log_gauss -= 0.5 * z[i] * z[i];
  }
  return log_gauss;
}

void BayesianSrm::end_burn_in(mcmc::GibbsWorkspace* workspace) const {
  auto* ws = dynamic_cast<Workspace*>(workspace);
  if (ws == nullptr || !ws->record || ws->kernel_frozen()) return;
  const std::size_t d = zeta_supports_.size();
  const std::size_t width = d + 1;
  const std::size_t scans = ws->recorded_scans;
  const std::size_t rows = std::min(scans - scans / 2, kRecordRows);
  if (rows < kMinFitRows) return;
  const auto row_of = [&](std::size_t r) {
    return ws->record.get() + ((scans - rows + r) % kRecordRows) * width;
  };

  // Means of u and the box acceptances over the rows.
  std::vector<double> mean(d, 0.0);
  double box_accepted = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = row_of(r);
    for (std::size_t j = 0; j < d; ++j) {
      mean[j] += scaled_logit(row[j], zeta_supports_[j]);
    }
    box_accepted += row[d];
  }
  const auto n = static_cast<double>(rows);
  for (std::size_t j = 0; j < d; ++j) mean[j] /= n;
  // Covariance of u, then the Cholesky factor of 4 Sigma; a pivot that is
  // not positive means the burn-in cannot support the Gaussian (a
  // coordinate that never moved gives a zero one).
  std::vector<double> factor(d * d, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = row_of(r);
    for (std::size_t i = 0; i < d; ++i) {
      const double ui = scaled_logit(row[i], zeta_supports_[i]) - mean[i];
      for (std::size_t k = 0; k <= i; ++k) {
        factor[i * d + k] +=
            ui * (scaled_logit(row[k], zeta_supports_[k]) - mean[k]);
      }
    }
  }
  const double scale = kMixtureScale * kMixtureScale / (n - 1.0);
  for (auto& entry : factor) entry *= scale;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t k = 0; k <= i; ++k) {
      double sum = factor[i * d + k];
      for (std::size_t m = 0; m < k; ++m) {
        sum -= factor[i * d + m] * factor[k * d + m];
      }
      if (k < i) {
        factor[i * d + k] = sum / factor[k * d + k];
      } else if (sum > 0.0 && std::isfinite(sum)) {
        factor[i * d + i] = std::sqrt(sum);
      } else {
        return;
      }
    }
  }

  constexpr double kLog2Pi = 1.8378770664093453;
  double log_gauss = std::log1p(-kMixtureBoxWeight) -
                     0.5 * static_cast<double>(d) * kLog2Pi;
  double log_box = std::log(kMixtureBoxWeight);
  for (std::size_t j = 0; j < d; ++j) {
    const double log_width =
        std::log(zeta_supports_[j].upper - zeta_supports_[j].lower);
    log_gauss += log_width - std::log(factor[j * d + j]);
    log_box -= log_width;
  }
  ws->jump_mean = std::move(mean);
  ws->jump_factor = std::move(factor);
  ws->jump_log_gauss = log_gauss;
  ws->jump_log_box = log_box;
  ws->box_jumps =
      box_accepted >= kMinBoxAcceptance * kBoxJumps * n ? kBoxJumps : 0;
}

std::int64_t BayesianSrm::initial_bugs_of(
    std::span<const double> state) const {
  return data_.total() +
         static_cast<std::int64_t>(std::llround(state[residual_index()]));
}

std::vector<double> BayesianSrm::detection_probabilities(
    std::span<const double> zeta) const {
  return model_->probabilities(data_.days(), zeta);
}

std::vector<double> BayesianSrm::pointwise_log_likelihood(
    std::span<const double> state) const {
  Workspace scratch(*this);
  std::vector<double> terms(data_.days());
  pointwise_row(state, scratch, terms);
  return terms;
}

void BayesianSrm::pointwise_row(std::span<const double> state,
                                mcmc::GibbsWorkspace& workspace,
                                std::span<double> out) const {
  auto* ws = dynamic_cast<Workspace*>(&workspace);
  SRM_EXPECTS(ws != nullptr,
              "pointwise_row requires a workspace from make_workspace()");
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  SRM_EXPECTS(out.size() >= data_.days(),
              "pointwise output needs one slot per testing day");
  // Eq (1) per day from one fill of both channels: log q_i is the model's
  // own stable log-survival, and log p_i is taken only on nonzero-count
  // days.
  const std::size_t days = data_.days();
  model_->detection_into(days, state.subspan(zeta_offset()),
                         ws->probabilities, ws->log_survivals);
  const auto counts = data_.counts();
  std::int64_t remaining = initial_bugs_of(state);  // N - s_{i-1}
  for (std::size_t i = 0; i < days; ++i) {
    out[i] = log_day_likelihood(remaining, counts[i], ws->probabilities[i],
                                ws->log_survivals[i]);
    remaining -= counts[i];
  }
}

double BayesianSrm::log_joint(std::span<const double> state) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  const std::int64_t n = initial_bugs_of(state);
  const auto zeta = state.subspan(zeta_offset());
  for (std::size_t j = 0; j < zeta.size(); ++j) {
    if (zeta[j] <= zeta_supports_[j].lower ||
        zeta[j] >= zeta_supports_[j].upper) {
      return kNegInf;
    }
  }

  double log_prior;
  if (poisson_content_) {
    const double lambda0 = state[1];
    if (lambda0 <= 0.0 || lambda0 >= config_.lambda_max) return kNegInf;
    log_prior = static_cast<double>(n) * std::log(lambda0) - lambda0 -
                math::log_factorial(n);
    if (config_.jeffreys_lambda0) log_prior -= 0.5 * std::log(lambda0);
  } else {
    const double alpha0 = state[1];
    const double beta0 = state[2];
    if (alpha0 <= 0.0 || alpha0 >= config_.alpha_max || beta0 <= 0.0 ||
        beta0 >= 1.0) {
      return kNegInf;
    }
    log_prior = math::log_negbinomial_coefficient(alpha0, n) +
                alpha0 * std::log(beta0) +
                static_cast<double>(n) * std::log1p(-beta0);
  }
  return log_prior +
         log_likelihood(data_, n, detection_probabilities(zeta));
}

}  // namespace srm::core
