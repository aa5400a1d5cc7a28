// The virtual-testing experiment protocol of Section 5.1, as a reusable
// driver: for each observation point d in {48, 67, 86, 96, 106, ...}
//   * take the real series truncated at min(d, last real day),
//   * append zero-count days up to d (the "virtual testing" hypothesis that
//     no bug is found after release),
//   * fit the requested Bayesian SRM by Gibbs sampling,
//   * record the residual-bug posterior summary, WAIC, and the convergence
//     diagnostics (PSRF and Geweke) for every sampled parameter.
//
// Every table and figure of the paper's evaluation is a projection of the
// ExperimentResult grid produced here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/model_family.hpp"
#include "core/posterior.hpp"
#include "core/waic.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/gibbs.hpp"

namespace srm::core {

struct ParameterDiagnostics {
  std::string name;
  double psrf = 0.0;       ///< Gelman-Rubin (needs >= 2 chains)
  double geweke_z = 0.0;   ///< chain-0 Geweke statistic
  double ess = 0.0;        ///< pooled effective sample size
  double posterior_mean = 0.0;
};

struct ObservationResult {
  std::size_t observation_day = 0;
  std::int64_t detected_so_far = 0;   ///< s at the observation point
  std::int64_t actual_residual = 0;   ///< total bugs - detected_so_far
  WaicResult waic;
  ResidualPosterior posterior;
  std::vector<ParameterDiagnostics> diagnostics;
};

struct ExperimentSpec {
  PriorKind prior = PriorKind::kPoisson;
  DetectionModelKind model = DetectionModelKind::kConstant;
  HyperPriorConfig config{};
  mcmc::GibbsOptions gibbs{};
  /// Observation days; days beyond the series length are virtual.
  std::vector<std::size_t> observation_days;
  /// Ground-truth eventual bug total (for "actual residual" columns).
  std::int64_t eventual_total = 0;
};

/// Persistence hook for the sweep driver (report::run_sweep): lets
/// already-computed observation cells be replayed from a store instead of
/// re-sampled, and streams freshly computed cells out as they finish. The
/// artifact layer (src/artifact/ArtifactStore) is the production
/// implementation; tests install counting fakes.
class ObservationStore {
 public:
  /// Scheduling decision for one (spec, observation day) cell.
  enum class Plan {
    kCompute,  ///< sample the cell and report it via on_computed()
    kReuse,    ///< use the stored result filled into `reuse_out`
    kSkip,     ///< leave the cell unfilled (budget exhausted / partial run)
  };

  virtual ~ObservationStore() = default;

  /// Called serially, in grid layout order, before any sampling starts.
  /// Returning kReuse requires `reuse_out` to be fully populated.
  virtual Plan plan(const ExperimentSpec& spec, std::size_t observation_day,
                    ObservationResult& reuse_out) = 0;

  /// Called once per kCompute cell when its sampling finishes. May be
  /// invoked from a worker thread; implementations must be thread-safe.
  virtual void on_computed(const ExperimentSpec& spec,
                           std::size_t observation_day,
                           const ObservationResult& result) = 0;
};

/// The dataset as seen at one observation day (truncate + zero-pad).
data::BugCountData dataset_at_observation(const data::BugCountData& base,
                                          std::size_t observation_day);

/// Runs one (prior, model) SRM across all observation days, one result per
/// day in spec order.
std::vector<ObservationResult> run_experiment(const data::BugCountData& base,
                                              const ExperimentSpec& spec);

/// Runs a single observation day; exposed for tests and examples.
ObservationResult run_observation(const data::BugCountData& base,
                                  const ExperimentSpec& spec,
                                  std::size_t observation_day);

}  // namespace srm::core
