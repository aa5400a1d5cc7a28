// The single-cell fit API — one (dataset, prior, model, config, Gibbs
// settings, observation day) posterior, scored in-scan by streaming sinks.
//
// This is the one code path every frontend shares: the CLI `fit` command,
// every cell of the 2x5x9 evaluation sweep (report/sweep.cpp via
// core::run_observation), and the estimation service (src/serve/) all
// resolve to fit_cell(). A FitRequest carries exactly the inputs that
// determine the sampled bits, so artifact::cell_hash over its spec form is
// a complete cache key: two requests with equal hashes produce
// byte-identical serialized results.
#pragma once

#include <cstdint>
#include <span>

#include "core/experiment.hpp"
#include "data/bug_count_data.hpp"
#include "mcmc/accumulator.hpp"

namespace srm::core {

/// One posterior cell. Unlike the sweep-oriented ExperimentSpec there is no
/// observation-day grid and no store protocol — just the inputs of a single
/// fit.
struct FitRequest {
  PriorKind prior = PriorKind::kPoisson;
  DetectionModelKind model = DetectionModelKind::kConstant;
  HyperPriorConfig config{};
  mcmc::GibbsOptions gibbs{};
  /// 1-based observation day; days beyond the series are virtual testing.
  std::size_t observation_day = 0;
  /// Ground-truth eventual bug total (for the "actual residual" field).
  std::int64_t eventual_total = 0;
};

/// The request as a single-day ExperimentSpec — the form the artifact
/// layer's cell_hash/cell_identity consume. The conversion is lossless for
/// hashing purposes: cell identity deliberately excludes the day grid.
[[nodiscard]] ExperimentSpec to_experiment_spec(const FitRequest& request);

/// The inverse projection: one day of a sweep spec as a FitRequest.
[[nodiscard]] FitRequest single_cell_request(const ExperimentSpec& spec,
                                             std::size_t observation_day);

/// Fits the requested SRM on `base` seen at the request's observation day
/// (truncate + zero-pad, Section 5.1) and returns the residual-bug
/// posterior, WAIC and per-parameter convergence diagnostics. Deterministic
/// given the request: bit-identical for any worker count. `observers` are
/// fed every retained draw after the cell's own sinks — an McmcRun there
/// records the draws the result was computed from.
ObservationResult fit_cell(
    const data::BugCountData& base, const FitRequest& request,
    std::span<mcmc::PosteriorAccumulator* const> observers = {});

}  // namespace srm::core
