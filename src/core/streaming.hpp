// The streaming posterior pipeline's model-scoring sinks.
//
// The Gibbs driver feeds every retained draw to these accumulators at the
// moment it is emitted; the pointwise log-likelihood row is one batch
// probability fill into the reused workspace buffer, scored in place — no
// trace is stored and no second likelihood pass runs. (Burn-in and
// thinned-away scans pay nothing: scoring happens per retained draw, not
// per scan.) The residual summary finalizes through the same helper the
// trace-based summarize_residual_posterior uses, over the same
// chain-ordered draws, so a run recorded alongside agrees bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/model_family.hpp"
#include "core/posterior.hpp"
#include "core/waic.hpp"
#include "mcmc/accumulator.hpp"
#include "stats/online.hpp"
#include "support/matrix.hpp"

namespace srm::core {

/// Online WAIC moments: per (data point, chain) a running log-sum-exp of
/// the log predictive densities and Welford moments of the finite ones,
/// merged in chain order at finalization. add_draw is allocation-free.
class WaicAccumulator {
 public:
  WaicAccumulator(std::size_t data_points, std::size_t chain_count);

  /// One retained draw's pointwise row: log_lik[i] = log p(x_{i+1} | draw).
  void add_draw(std::size_t chain, std::span<const double> log_lik);

  /// Merges the chain shards (chain order) into the WaicResult. Requires
  /// at least 2 draws in total.
  [[nodiscard]] WaicResult finalize() const;

  [[nodiscard]] std::size_t data_points() const { return data_points_; }

 private:
  std::size_t data_points_;
  std::size_t chain_count_;
  std::vector<stats::OnlineLogSumExp> log_sums_;  ///< [i * chain_count + c]
  std::vector<stats::OnlineMoments> moments_;     ///< finite terms only
};

/// PosteriorAccumulator that scores every retained draw in-scan: evaluates
/// the pointwise log-likelihood row through the model's type-erased
/// pointwise_row channel, into the workspace the sampler ran with (which
/// must come from this model's make_workspace()), and streams it into a
/// WaicAccumulator. With `keep_matrix` it additionally retains the flat
/// k x S matrix PSIS-LOO's tail fits need: rows are data points, column
/// chain * draws_per_chain + draw.
class StreamingScorer final : public mcmc::PosteriorAccumulator {
 public:
  StreamingScorer(const SrmModel& model, std::size_t chain_count,
                  std::size_t draws_per_chain, bool keep_matrix = false);

  void accumulate(std::size_t chain, std::span<const double> state,
                  mcmc::GibbsWorkspace* workspace) override;

  [[nodiscard]] WaicResult waic() const { return waic_.finalize(); }

  /// The retained k x S matrix; requires keep_matrix and all chains fed.
  [[nodiscard]] const support::Matrix& log_likelihood_matrix() const;

 private:
  const SrmModel& model_;
  std::size_t chain_count_;
  std::size_t draws_per_chain_;
  bool keep_matrix_;
  WaicAccumulator waic_;
  support::Matrix matrix_;  ///< k x (chains * draws) when keep_matrix
  struct ChainSlot {
    std::vector<double> row;  ///< pointwise scratch, one slot per data point
    std::size_t draws = 0;
  };
  std::vector<ChainSlot> chains_;
};

/// PosteriorAccumulator for the residual-bug posterior: buffers each
/// chain's residual draws (pre-allocated — the "bounded reservoir sized by
/// the retention policy") and finalizes through the trace-based summary
/// helper over the chain-ordered concatenation.
class ResidualAccumulator final : public mcmc::PosteriorAccumulator {
 public:
  ResidualAccumulator(std::size_t residual_index, std::size_t chain_count,
                      std::size_t draws_per_chain);

  void accumulate(std::size_t chain, std::span<const double> state,
                  mcmc::GibbsWorkspace* workspace) override;

  /// summarize_residual_samples over the pooled (chain-ordered) draws.
  [[nodiscard]] ResidualPosterior finalize() const;

 private:
  std::size_t residual_index_;
  support::Matrix draws_;            ///< one row per chain
  std::vector<std::size_t> counts_;  ///< draws received per chain
};

}  // namespace srm::core
