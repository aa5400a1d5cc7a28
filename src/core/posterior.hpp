// Posterior summaries of the residual bug count from an MCMC run — the
// statistics the paper tabulates (mean, median, mode, standard deviation;
// Tables II-V) and the box-plot five-number summaries (Figs 2-3).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mcmc/trace.hpp"
#include "stats/summary.hpp"

namespace srm::core {

struct ResidualPosterior {
  stats::IntegerSampleSummary summary;      ///< mean/sd/median/mode/min/max
  stats::FiveNumberSummary box;             ///< for box plots
  std::vector<std::int64_t> samples;        ///< pooled residual draws

  /// Central credible interval at the given level (e.g. 0.95), from the
  /// empirical quantiles of the pooled draws.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> credible_interval(
      double level) const;

  /// Posterior probability that at most `r` bugs remain — the "release
  /// confidence" number a decision maker asks for (r = 0: bug-free).
  [[nodiscard]] double probability_at_most(std::int64_t r) const;
};

/// Summarizes pooled residual draws (chain 0's draws first, matching
/// McmcRun::pooled). The streaming ResidualAccumulator and
/// summarize_residual_posterior both funnel through this, so their
/// summaries of the same draws are bit-identical.
ResidualPosterior summarize_residual_samples(std::span<const double> pooled);

/// Extracts the "residual" parameter from `run` and summarizes it.
ResidualPosterior summarize_residual_posterior(const mcmc::McmcRun& run);

}  // namespace srm::core
