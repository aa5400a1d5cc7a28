#include "core/tuning.hpp"

#include <limits>

#include "support/error.hpp"

namespace srm::core {

namespace {

// model1 is the only detection model with a theta parameter; model2's gamma
// bound is symmetric and kept fixed (the paper only mentions tuning
// theta_max among the zeta limits).
bool uses_theta(DetectionModelKind model) {
  return model == DetectionModelKind::kPadgettSpurrier;
}

}  // namespace

TuningResult tune_hyperparameters(const data::BugCountData& observed,
                                  PriorKind prior, DetectionModelKind model,
                                  const TuningGrid& grid,
                                  const mcmc::GibbsOptions& gibbs,
                                  HyperPriorConfig base_config) {
  SRM_EXPECTS(!grid.lambda_max_candidates.empty() &&
                  !grid.alpha_max_candidates.empty() &&
                  !grid.theta_max_candidates.empty(),
              "tuning grid must be non-empty in every dimension");

  // Which hyperprior limit the grid searches is family metadata, not a
  // per-prior special case: the registry record says whether the family's
  // scale is lambda0-like or alpha0-like.
  const TunedScale scale = family(prior).tuned_scale;
  const std::vector<double> prior_candidates =
      scale == TunedScale::kLambdaMax ? grid.lambda_max_candidates
                                      : grid.alpha_max_candidates;
  const std::vector<double> theta_candidates =
      uses_theta(model) ? grid.theta_max_candidates
                        : std::vector<double>{base_config.limits.theta_max};

  TuningResult result;
  double best = std::numeric_limits<double>::infinity();
  for (const double prior_limit : prior_candidates) {
    for (const double theta_max : theta_candidates) {
      HyperPriorConfig config = base_config;
      if (scale == TunedScale::kLambdaMax) {
        config.lambda_max = prior_limit;
      } else {
        config.alpha_max = prior_limit;
      }
      config.limits.theta_max = theta_max;

      const auto srm = make_model(prior, model, observed, config);
      const auto run = mcmc::run_gibbs(*srm, gibbs);
      const auto waic = compute_waic(*srm, run);
      result.evaluated.push_back({config, waic});
      if (waic.waic < best) {
        best = waic.waic;
        result.best_config = config;
        result.best_waic = waic;
      }
    }
  }
  return result;
}

}  // namespace srm::core
