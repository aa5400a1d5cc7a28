#include "core/experiment.hpp"

#include "core/fit.hpp"
#include "support/error.hpp"

namespace srm::core {

data::BugCountData dataset_at_observation(const data::BugCountData& base,
                                          std::size_t observation_day) {
  SRM_EXPECTS(observation_day >= 1, "observation day must be >= 1");
  if (observation_day <= base.days()) {
    return base.truncated(observation_day);
  }
  return base.with_virtual_testing(observation_day);
}

ObservationResult run_observation(const data::BugCountData& base,
                                  const ExperimentSpec& spec,
                                  std::size_t observation_day) {
  SRM_EXPECTS(observation_day >= 1, "observation day must be >= 1");
  // The sweep-oriented entry points are projections of the single-cell fit
  // API: one day of a spec is a FitRequest (core/fit.hpp), and every
  // frontend — this driver, the CLI, the estimation service — shares that
  // one path.
  return fit_cell(base, single_cell_request(spec, observation_day));
}

std::vector<ObservationResult> run_experiment(const data::BugCountData& base,
                                              const ExperimentSpec& spec) {
  SRM_EXPECTS(!spec.observation_days.empty(),
              "experiment needs at least one observation day");
  std::vector<ObservationResult> results;
  results.reserve(spec.observation_days.size());
  for (const std::size_t day : spec.observation_days) {
    results.push_back(run_observation(base, spec, day));
  }
  return results;
}

}  // namespace srm::core
