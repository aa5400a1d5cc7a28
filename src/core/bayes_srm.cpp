#include "core/bayes_srm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/conjugate.hpp"
#include "core/likelihood.hpp"
#include "mcmc/metropolis.hpp"
#include "mcmc/slice.hpp"
#include "random/samplers.hpp"
#include "stats/beta.hpp"
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
}  // namespace

BayesianSrm::BayesianSrm(PriorKind prior, DetectionModelKind model_kind,
                         data::BugCountData data, HyperPriorConfig config)
    : prior_(prior),
      model_(make_detection_model(model_kind)),
      data_(std::move(data)),
      config_(config),
      zeta_supports_(model_->parameter_supports(config.limits)) {
  SRM_EXPECTS(config.lambda_max > 0.0, "lambda_max must be positive");
  SRM_EXPECTS(config.alpha_max > 0.0, "alpha_max must be positive");
  SRM_EXPECTS(config.limits.theta_max > 0.0, "theta_max must be positive");
  SRM_EXPECTS(config.limits.gamma_bound > 0.0, "gamma_bound must be positive");
}

BayesianSrm::Workspace::Workspace(const BayesianSrm& model)
    : zeta(model.model_->parameter_count(), 0.0),
      probe(model.model_->parameter_count(), 0.0),
      proposal(model.model_->parameter_count(), 0.0),
      probabilities(model.data_.days(), 0.0),
      log_survivals(model.data_.days(), 0.0) {}

std::unique_ptr<mcmc::GibbsWorkspace> BayesianSrm::make_workspace() const {
  return std::make_unique<Workspace>(*this);
}

std::vector<std::string> BayesianSrm::parameter_names() const {
  std::vector<std::string> names{"residual"};
  if (prior_ == PriorKind::kPoisson) {
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
  if (prior_ == PriorKind::kPoisson) {
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
  if (prior_ == PriorKind::kPoisson) {
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
  if (prior_ == PriorKind::kPoisson) {
    // p(lambda0 | N) ∝ pi(lambda0) lambda0^N e^{-lambda0} on (0, lambda_max):
    // TruncatedGamma(N + 1, 1) under the uniform hyperprior, shape N + 1/2
    // under the Jeffreys variant pi ∝ lambda^{-1/2}.
    const double shape =
        static_cast<double>(n) + (config_.jeffreys_lambda0 ? 0.5 : 1.0);
    state[1] = random::sample_truncated_gamma(rng, shape, 1.0,
                                              config_.lambda_max);
  } else {
    // beta0 | N, alpha0 ~ Beta(alpha0 + 1, N + 1)  [exact].
    const double alpha0 = std::max(state[1], 1e-12);
    state[2] = stats::Beta(alpha0 + 1.0, static_cast<double>(n) + 1.0)
                   .sample(rng);
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
  if (prior_ == PriorKind::kPoisson) {
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
  if (prior_ == PriorKind::kPoisson) {
    // p(lambda0 | zeta, x) ∝ pi(lambda0) lambda0^{s_k} e^{-lambda0 (1-Q)}:
    // TruncatedGamma(s_k + 1, 1 - Q) under the uniform hyperprior (shape
    // s_k + 1/2 for Jeffreys). Rate is clamped away from 0 for the
    // degenerate no-detection case Q = 1.
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
  // Built at a workspace's first collapsed scan: scratch workspaces for
  // initial states and pointwise scoring never need one.
  if (!ws.evaluator) ws.evaluator = make_collapsed_evaluator(*model_, data_);
  auto& evaluator = *ws.evaluator;

  // Each distinct zeta is evaluated once: `current` holds the sums at the
  // state's zeta, and every accepted move carries its probe's sums along.
  CollapsedSums current = evaluator.evaluate(zeta);
  // The NB block moves at fixed thinned success probability beta'
  // (DESIGN.md): beta0 is mapped out at the starting Q and back at the
  // accepted one.
  const double thinned =
      prior_ == PriorKind::kNegativeBinomial
          ? thinned_beta(state[2], std::exp(current.log_survival))
          : 0.0;
  double current_density = collapsed_density(current, thinned);

  for (std::size_t j = 0; j < zeta.size(); ++j) {
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

  // Mode-jump move: component-wise slice sampling cannot cross between
  // well-separated posterior modes (model2's (mu, gamma) surface is
  // genuinely multimodal on some datasets), so finish the scan with an
  // independence-Metropolis proposal drawn uniformly from the prior box.
  // The move targets the same collapsed marginal, so correctness is
  // unaffected; acceptance is rare but sufficient to mix across modes.
  // Uniform prior => the proposal density cancels in the MH ratio.
  constexpr int kModeJumpProposals = 5;
  auto& proposal = ws.proposal;
  CollapsedSums proposed;
  mcmc::independence_metropolis(
      rng, kModeJumpProposals, current_density,
      [&](random::Rng& proposal_rng) {
        bool inside = true;
        for (std::size_t j = 0; j < zeta.size(); ++j) {
          const auto& support = zeta_supports_[j];
          proposal[j] = proposal_rng.uniform(support.lower, support.upper);
          inside = inside && proposal[j] > support.lower &&
                   proposal[j] < support.upper;
        }
        if (!inside) return kNegInf;
        proposed = evaluator.evaluate(proposal);
        return collapsed_density(proposed, thinned);
      },
      [&] {
        zeta = proposal;  // equal sizes: copies in place, no allocation
        current = proposed;
        for (std::size_t j = 0; j < zeta.size(); ++j) {
          state[zeta_offset() + j] = zeta[j];
        }
      });

  const double survival = std::exp(current.log_survival);
  if (prior_ == PriorKind::kNegativeBinomial) {
    state[2] = unthinned_beta(thinned, survival);
  }
  return survival;
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
  pointwise_log_likelihood_into(state, scratch, terms);
  return terms;
}

void BayesianSrm::pointwise_log_likelihood_into(std::span<const double> state,
                                                Workspace& ws,
                                                std::span<double> out) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  SRM_EXPECTS(out.size() >= data_.days(),
              "pointwise output needs one slot per testing day");
  model_->probabilities_into(data_.days(), state.subspan(zeta_offset()),
                             ws.probabilities);
  fill_pointwise(initial_bugs_of(state), ws, out);
}

void BayesianSrm::pointwise_into(std::span<const double> state, Workspace& ws,
                                 std::span<double> out) const {
  SRM_EXPECTS(state.size() == state_size(), "state vector has wrong size");
  SRM_EXPECTS(out.size() >= data_.days(),
              "pointwise output needs one slot per testing day");
  // One batch probability fill into the workspace buffer. Streaming scoring
  // and stored-trace replay both score through this exact call, so the two
  // pipeline modes agree bit for bit.
  model_->probabilities_into(data_.days(), state.subspan(zeta_offset()),
                             ws.probabilities);
  fill_pointwise(initial_bugs_of(state), ws, out);
}

bool BayesianSrm::is_scan_workspace(
    const mcmc::GibbsWorkspace& workspace) const {
  return dynamic_cast<const Workspace*>(&workspace) != nullptr;
}

void BayesianSrm::pointwise_row(std::span<const double> state,
                                mcmc::GibbsWorkspace& workspace,
                                std::span<double> out) const {
  auto* ws = dynamic_cast<Workspace*>(&workspace);
  SRM_EXPECTS(ws != nullptr,
              "pointwise_row requires a workspace from make_workspace()");
  pointwise_into(state, *ws, out);
}

void BayesianSrm::fill_pointwise(std::int64_t initial_bugs, Workspace& ws,
                                 std::span<double> out) const {
  for (std::size_t day = 1; day <= data_.days(); ++day) {
    out[day - 1] =
        log_pointwise_likelihood(data_, day, initial_bugs, ws.probabilities);
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
  if (prior_ == PriorKind::kPoisson) {
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
