#include "core/streaming.hpp"

#include <cmath>

#include "support/error.hpp"

namespace srm::core {

WaicAccumulator::WaicAccumulator(std::size_t data_points,
                                 std::size_t chain_count)
    : data_points_(data_points),
      chain_count_(chain_count),
      log_sums_(data_points * chain_count),
      moments_(data_points * chain_count) {
  SRM_EXPECTS(data_points >= 1, "WAIC needs at least one data point");
  SRM_EXPECTS(chain_count >= 1, "WAIC needs at least one chain");
}

void WaicAccumulator::add_draw(std::size_t chain,
                               std::span<const double> log_lik) {
  SRM_EXPECTS(chain < chain_count_, "chain index out of range");
  SRM_EXPECTS(log_lik.size() == data_points_,
              "pointwise row must have one value per data point");
  for (std::size_t i = 0; i < data_points_; ++i) {
    const std::size_t slot = i * chain_count_ + chain;
    const double term = log_lik[i];
    log_sums_[slot].add(term);
    // A -inf draw (a sampled state that cannot produce x_i) would make the
    // variance infinite; such states have posterior probability zero up to
    // MCMC noise and are excluded, matching how loo/WAIC software treats
    // them.
    if (std::isfinite(term)) {
      moments_[slot].add(term);
    }
  }
}

WaicResult WaicAccumulator::finalize() const {
  std::size_t total_samples = 0;
  for (std::size_t c = 0; c < chain_count_; ++c) {
    total_samples += log_sums_[c].count();  // data point 0's shards
  }
  SRM_EXPECTS(total_samples >= 2, "WAIC requires at least 2 posterior draws");
  const double log_s = std::log(static_cast<double>(total_samples));
  const auto k = static_cast<double>(data_points_);

  double learning_loss = 0.0;
  double functional_variance = 0.0;
  for (std::size_t i = 0; i < data_points_; ++i) {
    stats::OnlineLogSumExp log_sum;
    stats::OnlineMoments moments;
    for (std::size_t c = 0; c < chain_count_; ++c) {
      log_sum.merge(log_sums_[i * chain_count_ + c]);
      moments.merge(moments_[i * chain_count_ + c]);
    }
    // T_k contribution: -log( (1/S) sum_s exp(log p) ).
    learning_loss -= log_sum.result() - log_s;
    // V_k contribution: sample variance of log p over the finite draws.
    if (moments.count() >= 2) {
      functional_variance += moments.sample_variance();
    }
  }
  learning_loss /= k;

  WaicResult result;
  result.learning_loss = learning_loss;
  result.functional_variance = functional_variance;
  result.waic_per_point = learning_loss + functional_variance / k;  // Eq (23)
  result.waic = 2.0 * k * result.waic_per_point;
  result.data_points = data_points_;
  result.samples = total_samples;
  return result;
}

StreamingScorer::StreamingScorer(const SrmModel& model,
                                 std::size_t chain_count,
                                 std::size_t draws_per_chain,
                                 bool keep_matrix)
    : model_(model),
      chain_count_(chain_count),
      draws_per_chain_(draws_per_chain),
      keep_matrix_(keep_matrix),
      waic_(model.data().days(), chain_count),
      chains_(chain_count) {
  SRM_EXPECTS(draws_per_chain >= 1, "need at least one draw per chain");
  if (keep_matrix_) {
    matrix_ = support::Matrix(model.data().days(),
                              chain_count * draws_per_chain);
  }
  for (auto& slot : chains_) {
    slot.row.resize(model.data().days());
  }
}

void StreamingScorer::accumulate(std::size_t chain,
                                 std::span<const double> state,
                                 mcmc::GibbsWorkspace* workspace) {
  SRM_EXPECTS(chain < chain_count_, "chain index out of range");
  ChainSlot& slot = chains_[chain];
  SRM_EXPECTS(slot.draws < draws_per_chain_,
              "chain delivered more draws than declared");
  SRM_EXPECTS(workspace != nullptr,
              "StreamingScorer needs the model's scan workspace");
  model_.pointwise_row(state, *workspace, slot.row);
  waic_.add_draw(chain, slot.row);
  if (keep_matrix_) {
    // Columns are disjoint per chain, so concurrent chains never share a
    // cell; the layout matches the flattened pooled sample index.
    const std::size_t col = chain * draws_per_chain_ + slot.draws;
    for (std::size_t i = 0; i < slot.row.size(); ++i) {
      matrix_(i, col) = slot.row[i];
    }
  }
  ++slot.draws;
}

const support::Matrix& StreamingScorer::log_likelihood_matrix() const {
  SRM_EXPECTS(keep_matrix_, "scorer was built without matrix retention");
  for (const auto& slot : chains_) {
    SRM_EXPECTS(slot.draws == draws_per_chain_,
                "scorer is incomplete: a chain is missing draws");
  }
  return matrix_;
}

ResidualAccumulator::ResidualAccumulator(std::size_t residual_index,
                                         std::size_t chain_count,
                                         std::size_t draws_per_chain)
    : residual_index_(residual_index),
      draws_(chain_count, draws_per_chain),
      counts_(chain_count, 0) {
  SRM_EXPECTS(chain_count >= 1, "need at least one chain");
  SRM_EXPECTS(draws_per_chain >= 1, "need at least one draw per chain");
}

void ResidualAccumulator::accumulate(std::size_t chain,
                                     std::span<const double> state,
                                     mcmc::GibbsWorkspace* /*workspace*/) {
  SRM_EXPECTS(chain < counts_.size(), "chain index out of range");
  SRM_EXPECTS(residual_index_ < state.size(),
              "state has no residual component");
  SRM_EXPECTS(counts_[chain] < draws_.cols(),
              "chain delivered more draws than declared");
  draws_(chain, counts_[chain]) = state[residual_index_];
  ++counts_[chain];
}

ResidualPosterior ResidualAccumulator::finalize() const {
  std::vector<double> pooled;
  pooled.reserve(draws_.size());
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    SRM_EXPECTS(counts_[c] == draws_.cols(),
                "accumulator is incomplete: a chain is missing draws");
    const auto row = draws_.row(c);
    pooled.insert(pooled.end(), row.begin(), row.end());
  }
  return summarize_residual_samples(pooled);
}

}  // namespace srm::core
