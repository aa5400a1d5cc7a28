#include "core/fit.hpp"

#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "diagnostics/geweke.hpp"
#include "diagnostics/online.hpp"
#include "support/error.hpp"

namespace srm::core {

ExperimentSpec to_experiment_spec(const FitRequest& request) {
  ExperimentSpec spec;
  spec.prior = request.prior;
  spec.model = request.model;
  spec.config = request.config;
  spec.gibbs = request.gibbs;
  spec.observation_days = {request.observation_day};
  spec.eventual_total = request.eventual_total;
  return spec;
}

FitRequest single_cell_request(const ExperimentSpec& spec,
                               std::size_t observation_day) {
  SRM_EXPECTS(observation_day >= 1, "observation day must be >= 1");
  FitRequest request;
  request.prior = spec.prior;
  request.model = spec.model;
  request.config = spec.config;
  request.gibbs = spec.gibbs;
  request.observation_day = observation_day;
  request.eventual_total = spec.eventual_total;
  return request;
}

void require_fit_draws(const mcmc::GibbsOptions& gibbs) {
  diagnostics::require_geweke_draws(gibbs.iterations);
}

ObservationResult fit_cell(
    const data::BugCountData& base, const FitRequest& request,
    std::span<mcmc::PosteriorAccumulator* const> observers) {
  SRM_EXPECTS(request.observation_day >= 1, "observation day must be >= 1");
  const auto observed = dataset_at_observation(base, request.observation_day);

  const auto model_ptr =
      make_model(request.prior, request.model, observed, request.config);
  const SrmModel& model = *model_ptr;

  // Every reported number comes from these sinks, fed in-scan; the scorer
  // reads each draw's fresh workspace buffers, so no draw is stored.
  StreamingScorer scorer(model, request.gibbs.chain_count,
                         request.gibbs.iterations);
  diagnostics::ParameterStatsAccumulator stats(model.state_size(),
                                               request.gibbs.chain_count,
                                               request.gibbs.iterations);
  ResidualAccumulator residual(model.residual_index(),
                               request.gibbs.chain_count,
                               request.gibbs.iterations);
  std::vector<mcmc::PosteriorAccumulator*> sinks{&scorer, &stats, &residual};
  sinks.insert(sinks.end(), observers.begin(), observers.end());
  mcmc::run_gibbs(model, request.gibbs, sinks);

  ObservationResult result;
  result.observation_day = request.observation_day;
  result.detected_so_far = observed.total();
  result.actual_residual = request.eventual_total - observed.total();
  result.waic = scorer.waic();
  result.posterior = residual.finalize();

  const auto names = model.parameter_names();
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto online = stats.parameter(p);
    ParameterDiagnostics diag;
    diag.name = names[p];
    diag.posterior_mean = online.posterior_mean;
    diag.ess = online.ess;
    diag.psrf = online.psrf;
    diag.geweke_z = online.geweke_z;
    result.diagnostics.push_back(std::move(diag));
  }
  return result;
}

}  // namespace srm::core
