// Single-pass (online) accumulators used by the streaming posterior
// pipeline: Welford moments and a running log-sum-exp. Both support a
// deterministic shard merge so per-chain partials can be combined in
// chain order, which keeps the streamed statistics bit-identical
// regardless of how many worker threads fed the shards.
#pragma once

#include <cstddef>
#include <limits>

namespace srm::stats {

/// Welford mean/variance accumulator. The per-sample recurrence is the
/// same one `stats::sample_variance` uses, so a single shard fed
/// sequentially reproduces the two-pass helpers bit for bit; `merge`
/// uses the Chan et al. pairwise update for combining chain shards.
class OnlineMoments {
 public:
  // Any double is a valid observation; the empty contract lives on mean().
  // srm-lint: allow(expects) — total domain, hot per-draw path
  void add(double value);

  /// Folds `other` into this accumulator (Chan/parallel-Welford update).
  /// Merging an empty shard is the identity.
  void merge(const OnlineMoments& other);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Plain sum/count mean — matches `stats::mean` over the same
  /// sequence. Requires at least one observation.
  [[nodiscard]] double mean() const;

  /// Unbiased (n-1) variance — matches `stats::sample_variance` over
  /// the same sequence. Requires at least two observations.
  [[nodiscard]] double sample_variance() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double welford_mean_ = 0.0;
  double m2_ = 0.0;
};

/// Running log(sum(exp(x_i))) with the same -inf semantics as
/// `support::math::log_sum_exp`: -inf terms contribute zero mass and an
/// all--inf (or empty) stream yields -inf.
class OnlineLogSumExp {
 public:
  // Any double (including -inf) is a valid log-density term.
  // srm-lint: allow(expects) — total domain, hot per-draw path
  void add(double value);

  /// Folds `other` into this accumulator; deterministic for a fixed
  /// merge order. Merging an empty shard is the identity.
  void merge(const OnlineLogSumExp& other);

  [[nodiscard]] std::size_t count() const { return count_; }

  /// log(sum(exp(...))) over everything added so far.
  [[nodiscard]] double result() const;

 private:
  std::size_t count_ = 0;
  double max_ = -std::numeric_limits<double>::infinity();
  double scaled_sum_ = 0.0;  // sum of exp(x - max_)
};

}  // namespace srm::stats
