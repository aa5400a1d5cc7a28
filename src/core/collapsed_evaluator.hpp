// Per-coordinate evaluation of the collapsed zeta-density's data sums.
//
// Every probe of the collapsed Gibbs scan (core/bayes_srm.hpp) needs two
// sums over the count series x_1..x_k with cumulative counts s_i:
//
//   base(zeta) = sum_{x_i > 0} x_i log p_i + sum_i (s_k - s_i) log q_i
//   log Q      = sum_i log q_i
//
// A slice move changes one coordinate of zeta. An evaluator is built once
// from the series and prepared once per coordinate update, so a probe pays
// only for what that coordinate touches. With e_i = s_k - s_i =
// sum_{j>i} x_j and R_m = prod_{i<=m} q_i, summation by parts turns both
// sums into products of factors in (0, 1] that are logged once:
//
//   base(zeta) = log prod_{x_j > 0} (p_j R_{j-1})^{x_j},   log Q = log R_k
//
// (derivations in DESIGN.md, "Collapsed evaluator"):
//
//   model0          O(1): s_k log mu + (sum_i (s_k - s_i)) log1p(-mu)
//   model1          mu probe: one product over the nonzero-count days;
//                   theta probe: one division per day
//   model2          one division per day; a mu probe adds one exp per day,
//                   a gamma probe reuses day powers prepared with mu
//   model3          one expm1/exp per nonzero-count day, plus two
//                   precomputed sums times log mu
//   model4          mu probe: as model3 with prepared day exponents;
//                   omega probe: day powers on nonzero-count days only
//   multinomial     shape probe: one expm1/exp per nonzero-count day; scale
//                   probe: one log1p more per nonzero-count day
//   model5, model6  the channel evaluator (below)
//
// Accuracy contract: the sums agree with a long-double per-day evaluation
// to a relative tolerance (tests/core/collapsed_evaluator_test.cpp). They
// are NOT bit-identical to log_likelihood_collapsed_base over
// DetectionModel::detection_into; that pair stays the reference and is
// exactly what the channel evaluator computes.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "core/detection_models.hpp"
#include "data/bug_count_data.hpp"

namespace srm::core {

/// The two data sums of the collapsed zeta-density at one zeta.
struct CollapsedSums {
  double base = 0.0;          ///< base(zeta); -inf for an impossible series
  double log_survival = 0.0;  ///< log Q = sum_i log q_i
};

/// Evaluates CollapsedSums for one detection model over one count series.
/// Holds preallocated scratch, so no call allocates; one per chain.
/// Preconditions of every call: zeta (with the probed value) lies inside
/// the model's support.
class CollapsedEvaluator {
 public:
  CollapsedEvaluator() = default;
  CollapsedEvaluator(const CollapsedEvaluator&) = delete;
  CollapsedEvaluator& operator=(const CollapsedEvaluator&) = delete;
  CollapsedEvaluator(CollapsedEvaluator&&) = delete;
  CollapsedEvaluator& operator=(CollapsedEvaluator&&) = delete;
  virtual ~CollapsedEvaluator() = default;

  /// Both sums at a full zeta vector. May discard what prepare() set up.
  [[nodiscard]] virtual CollapsedSums evaluate(std::span<const double> zeta) = 0;

  /// Holds every coordinate of `zeta` except `coordinate` fixed for probe().
  virtual void prepare(std::span<const double> zeta, std::size_t coordinate) = 0;

  /// Both sums at the prepared zeta with its free coordinate set to `value`.
  [[nodiscard]] virtual CollapsedSums probe(double value) = 0;
};

/// The evaluator of `model` over `data`: the sufficient-statistic form for
/// model0..model4 and the size-biased multinomial, the channel evaluator for
/// model5 and model6. `model`
/// must outlive it.
std::unique_ptr<CollapsedEvaluator> make_collapsed_evaluator(
    const DetectionModel& model, const data::BugCountData& data);

/// The reference evaluator for any model: every probe fills p_i and
/// log q_i through model.detection_into and sums them with
/// log_likelihood_collapsed_base, bit for bit. `model` must outlive it.
std::unique_ptr<CollapsedEvaluator> make_channel_evaluator(
    const DetectionModel& model, const data::BugCountData& data);

}  // namespace srm::core
