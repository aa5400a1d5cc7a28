#include "diagnostics/online.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "diagnostics/geweke.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::diagnostics {

ParameterStatsAccumulator::ParameterStatsAccumulator(
    std::size_t parameter_count, std::size_t chain_count,
    std::size_t draws_per_chain)
    : parameter_count_(parameter_count),
      chain_count_(chain_count),
      draws_per_chain_(draws_per_chain),
      max_lag_(std::min(kMaxEssLag, draws_per_chain - 1)),
      ring_mask_(std::bit_ceil(std::min(kMaxEssLag, draws_per_chain - 1) +
                               std::size_t{1}) -
                 1),
      shards_(parameter_count * chain_count) {
  SRM_EXPECTS(parameter_count >= 1, "need at least one parameter");
  SRM_EXPECTS(chain_count >= 1, "need at least one chain");
  SRM_EXPECTS(draws_per_chain >= 1, "need at least one draw per chain");
  const std::size_t window = max_lag_ + 1;
  for (auto& shard : shards_) {
    shard.lag_products.assign(window, 0.0);
    shard.head.reserve(window);
    shard.ring.assign(ring_mask_ + 1, 0.0);
  }
  // Same window arithmetic as geweke()'s defaults (0.1, 0.5), checked
  // here so a short request fails before any sampling.
  geweke_first_n_ = static_cast<std::size_t>(
      std::floor(0.1 * static_cast<double>(draws_per_chain_)));
  geweke_last_n_ = static_cast<std::size_t>(
      std::floor(0.5 * static_cast<double>(draws_per_chain_)));
  SRM_EXPECTS(geweke_first_n_ >= kGewekeMinWindow &&
                  geweke_last_n_ >= kGewekeMinWindow,
              "Geweke diagnostics need at least 40 retained draws per "
              "chain, got " +
                  support::dec(draws_per_chain_));
  geweke_first_.resize(parameter_count_);
  geweke_last_.resize(parameter_count_);
  for (std::size_t p = 0; p < parameter_count_; ++p) {
    geweke_first_[p].reserve(geweke_first_n_);
    geweke_last_[p].reserve(geweke_last_n_);
  }
}

void ParameterStatsAccumulator::add_value(ChainShard& shard, double x) {
  const std::size_t window = max_lag_ + 1;
  const std::size_t t = shard.n;
  if (t == 0) {
    shard.shift = x;
  }
  const double shift = shard.shift;
  const double y = x - shift;
  auto& products = shard.lag_products;
  products[0] += y * y;
  const std::size_t lags = std::min(max_lag_, t);
  if (lags != 0) {
    // Slots for t-1, t-2, ... have not been overwritten yet: the current
    // draw lands on t & mask, and t - lag > t - capacity for lag <= max_lag
    // < capacity. The slot sequence descends linearly with at most one
    // wrap, so the lag loop splits into two branch-free runs the compiler
    // can keep in registers — no per-iteration modulo.
    const double* ring = shard.ring.data();
    double* prod = shard.lag_products.data() + 1;
    const std::size_t start = (t - 1) & ring_mask_;
    const std::size_t first = std::min(lags, start + 1);
    for (std::size_t k = 0; k < first; ++k) {
      prod[k] += y * (ring[start - k] - shift);
    }
    for (std::size_t k = first; k < lags; ++k) {
      prod[k] += y * (ring[ring_mask_ - (k - first)] - shift);
    }
  }
  shard.ring[t & ring_mask_] = x;
  if (shard.head.size() < window) {
    shard.head.push_back(x);
  }
  shard.shifted_sum += y;
  shard.moments.add(x);
  shard.n = t + 1;
}

void ParameterStatsAccumulator::accumulate(std::size_t chain,
                                           std::span<const double> state,
                                           mcmc::GibbsWorkspace* /*workspace*/) {
  SRM_EXPECTS(chain < chain_count_, "chain index out of range");
  SRM_EXPECTS(state.size() == parameter_count_,
              "state width must match the accumulator's parameter count");
  const std::size_t t = shards_[chain].n;  // shard (p=0, c=chain)
  for (std::size_t p = 0; p < parameter_count_; ++p) {
    add_value(shards_[p * chain_count_ + chain], state[p]);
  }
  if (chain == 0) {
    const bool in_first = t < geweke_first_n_;
    const bool in_last = t >= draws_per_chain_ - geweke_last_n_;
    if (in_first || in_last) {
      for (std::size_t p = 0; p < parameter_count_; ++p) {
        if (in_first) geweke_first_[p].push_back(state[p]);
        if (in_last) geweke_last_[p].push_back(state[p]);
      }
    }
  }
}

double ParameterStatsAccumulator::pooled_ess(std::size_t p,
                                             double pooled_mean) const {
  const std::size_t total = chain_count_ * draws_per_chain_;
  SRM_EXPECTS(total >= 4,
              "effective_sample_size requires at least 4 samples");
  const auto n = static_cast<double>(total);
  const std::size_t window = max_lag_ + 1;

  // Pooled autocovariances gamma[l] of the chain-concatenated sequence,
  // reconstructed from the shifted per-chain lag products plus the raw
  // cross-boundary pairs between consecutive chains:
  //   sum_t (x_t - m)(x_{t+l} - m)
  //     = P[l] - d (A_l + B_l) + (n_c - l) d^2         within a chain,
  // with d = m - shift, A_l / B_l the shifted sums excluding the last /
  // first l draws. Denominator n for every lag, as in stats::autocovariance.
  std::vector<double> gamma(window, 0.0);
  for (std::size_t lag = 0; lag < window; ++lag) {
    double acc = 0.0;
    for (std::size_t c = 0; c < chain_count_; ++c) {
      const ChainShard& s = shard(p, c);
      const double d = pooled_mean - s.shift;
      double head_y = 0.0;
      double tail_y = 0.0;
      for (std::size_t j = 0; j < lag; ++j) {
        head_y += s.head[j] - s.shift;
        tail_y += s.ring[(s.n - lag + j) & ring_mask_] - s.shift;
      }
      const double a = s.shifted_sum - tail_y;
      const double b = s.shifted_sum - head_y;
      acc += s.lag_products[lag] - d * (a + b) +
             static_cast<double>(s.n - lag) * d * d;
    }
    // Pairs straddling a chain boundary in the pooled concatenation: the
    // last `lag` draws of chain c against the first `lag` draws of c + 1
    // (lag <= draws_per_chain - 1, so pairs never span more than one
    // boundary).
    for (std::size_t c = 0; c + 1 < chain_count_; ++c) {
      const ChainShard& left = shard(p, c);
      const ChainShard& right = shard(p, c + 1);
      for (std::size_t j = 0; j < lag; ++j) {
        const double x = left.ring[(left.n - lag + j) & ring_mask_];
        acc += (x - pooled_mean) * (right.head[j] - pooled_mean);
      }
    }
    gamma[lag] = acc / n;
  }

  // Geyer initial positive sequence, as in effective_sample_size().
  const double c0 = gamma[0];
  if (c0 <= 0.0) return n;  // constant sequence
  double sum = 0.0;
  double previous_pair = std::numeric_limits<double>::infinity();
  for (std::size_t lag = 1; lag + 1 <= max_lag_; lag += 2) {
    const double pair = gamma[lag] + gamma[lag + 1];
    if (pair <= 0.0) break;
    const double capped = std::min(pair, previous_pair);
    sum += capped;
    previous_pair = capped;
  }
  const double tau = 1.0 + 2.0 * sum / c0;
  return std::clamp(n / std::max(tau, 1.0), 1.0, n);
}

OnlineParameterStats ParameterStatsAccumulator::parameter(
    std::size_t p) const {
  SRM_EXPECTS(p < parameter_count_, "parameter index out of range");
  for (std::size_t c = 0; c < chain_count_; ++c) {
    SRM_EXPECTS(shard(p, c).n == draws_per_chain_,
                "accumulator is incomplete: a chain is missing draws");
  }

  OnlineParameterStats out;

  double total_sum = 0.0;
  for (std::size_t c = 0; c < chain_count_; ++c) {
    total_sum += shard(p, c).moments.sum();
  }
  const auto total =
      static_cast<double>(chain_count_ * draws_per_chain_);
  out.posterior_mean = total_sum / total;

  if (chain_count_ >= 2) {
    // Exactly gelman_rubin()'s arithmetic over the per-chain shards.
    SRM_EXPECTS(draws_per_chain_ >= 2,
                "gelman_rubin requires >= 2 samples per chain");
    const auto m = static_cast<double>(chain_count_);
    const auto nd = static_cast<double>(draws_per_chain_);
    double w = 0.0;
    std::vector<double> chain_means;
    chain_means.reserve(chain_count_);
    for (std::size_t c = 0; c < chain_count_; ++c) {
      w += shard(p, c).moments.sample_variance();
      chain_means.push_back(shard(p, c).moments.mean());
    }
    w /= m;
    double grand_mean = 0.0;
    for (const double cm : chain_means) grand_mean += cm;
    grand_mean /= m;
    double b_over_n = 0.0;
    for (const double cm : chain_means) {
      b_over_n += (cm - grand_mean) * (cm - grand_mean);
    }
    b_over_n /= (m - 1.0);
    const double pooled = (nd - 1.0) / nd * w + b_over_n;
    if (w <= 0.0) {
      out.psrf = (b_over_n <= 0.0)
                     ? 1.0
                     : std::numeric_limits<double>::infinity();
    } else {
      out.psrf = std::sqrt(pooled / w);
    }
  } else {
    out.psrf = 1.0;  // single chain: PSRF undefined, report neutral
  }

  out.geweke_z = geweke_from_windows(geweke_first_[p], geweke_last_[p]).z;

  out.ess = pooled_ess(p, out.posterior_mean);
  return out;
}

}  // namespace srm::diagnostics
