// Lane-parallel Gibbs scan for BayesianSrm (GibbsOptions::chain_lanes):
// up to four independent chains advance through one scan together, with
// the likelihood work — detection channels and day reductions — batched
// across SIMD lanes by core/lane_kernels and the divergent slice-sampler
// control flow handled by mcmc::slice_sample_lanes' mask-and-retire.
//
// The split of labour per scan:
//   lane-batched   zeta slice densities, mode-jump densities, survival
//                  products (they dominate the scan cost: one detection
//                  sweep per density evaluation)
//   scalar/lane    hyperparameter draws, residual draws, bookkeeping
//                  (cheap, and trivially lane-independent: the scalar
//                  scan's own update_hyperparameters_collapsed /
//                  update_residual on per-lane state with the lane's RNG)
//
// This TU compiles at the baseline ISA; all wider-ISA code stays behind
// the lane_kernels interface. The bit-identity contract (LaneGibbsModel)
// holds because every lane-batched value is a pure vertical function of
// its own lane's inputs and every RNG only advances on its own lane's
// draws — so a chain's draw sequence does not depend on what shares its
// pack.
#include "core/bayes_srm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/detection_tables.hpp"
#include "core/lane_kernels.hpp"
#include "mcmc/slice.hpp"
#include "mcmc/slice_lanes.hpp"
#include "support/error.hpp"

namespace srm::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr std::size_t kL = lane_kernels::kChainLanes;

static_assert(mcmc::kChainLanes == lane_kernels::kChainLanes,
              "the mcmc lane sampler and the core lane kernels must agree "
              "on the lane capacity");

// Copies lane 0 into the padding lanes of a parameter-major SoA block.
// Padding lanes only exist so the unconditional vector kernels always see
// finite in-support inputs; their results are never read.
void pad_soa(std::vector<double>& soa, std::size_t params,
             std::size_t lane_count) {
  for (std::size_t j = 0; j < params; ++j) {
    for (std::size_t l = lane_count; l < kL; ++l) {
      soa[j * kL + l] = soa[j * kL];
    }
  }
}

}  // namespace

BayesianSrm::LaneWorkspace::LaneWorkspace(const BayesianSrm& model,
                                          std::size_t lanes)
    : lane_count(lanes),
      zeta_soa(model.model_->parameter_count() * kL, 0.0),
      probe_soa(model.model_->parameter_count() * kL, 0.0),
      proposal_soa(model.model_->parameter_count() * kL, 0.0),
      probabilities(model.data_.days() * kL, 0.0),
      log_survivals(model.data_.days() * kL, 0.0) {
  SRM_EXPECTS(lanes >= 1 && lanes <= kL,
              "LaneWorkspace packs 1..lane_width() chains");
}

std::size_t BayesianSrm::lane_width() const { return kL; }

std::unique_ptr<mcmc::GibbsWorkspace> BayesianSrm::make_lane_workspace(
    std::size_t lane_count) const {
  SRM_EXPECTS(lane_count >= 1 && lane_count <= kL,
              "make_lane_workspace packs 1..lane_width() chains");
  return std::make_unique<LaneWorkspace>(*this, lane_count);
}

void BayesianSrm::lane_survivals(LaneWorkspace& ws,
                                 double* survivals) const {
  const std::size_t days = data_.days();
  const auto& tables = day_tables(days);
  lane_kernels::detection_lanes(
      static_cast<int>(model_->kind()), days, ws.zeta_soa.data(),
      tables.log_day, tables.pareto_exponent, ws.probabilities.data(),
      ws.log_survivals.data());
  double qsum[kL];
  lane_kernels::logq_sum_lanes(days, ws.log_survivals.data(), qsum);
  for (std::size_t l = 0; l < kL; ++l) {
    // Same underflow-is-the-limit convention as stable_survival: any
    // certain-detection day collapses the product to exactly 0.
    survivals[l] = std::isfinite(qsum[l]) ? std::exp(qsum[l]) : 0.0;
  }
}

void BayesianSrm::collapsed_density_lanes(const double* zeta_soa,
                                          unsigned active,
                                          const double* thinned,
                                          LaneWorkspace& ws,
                                          double* out) const {
  // Support precheck per lane, scalar: a lane outside the prior box is
  // -inf without touching the kernels (the scalar path's first early-out).
  unsigned eval = 0;
  for (std::size_t l = 0; l < ws.lane_count; ++l) {
    if ((active & (1U << l)) == 0) continue;
    bool inside = true;
    for (std::size_t j = 0; j < zeta_supports_.size(); ++j) {
      const double value = zeta_soa[j * kL + l];
      if (value <= zeta_supports_[j].lower ||
          value >= zeta_supports_[j].upper) {
        inside = false;
        break;
      }
    }
    if (inside) {
      eval |= 1U << l;
    } else {
      out[l] = kNegInf;
    }
  }
  if (eval == 0) return;

  const std::size_t days = data_.days();
  const auto& tables = day_tables(days);
  lane_kernels::detection_lanes(static_cast<int>(model_->kind()), days,
                                zeta_soa, tables.log_day,
                                tables.pareto_exponent,
                                ws.probabilities.data(),
                                ws.log_survivals.data());
  const lane_kernels::LaneDayData day_data{
      days, data_.total(), data_.counts().data(), data_.cumulative().data()};
  double base[kL];
  double qsum[kL];
  lane_kernels::collapsed_base_lanes(day_data, ws.probabilities.data(),
                                     ws.log_survivals.data(), base, qsum);

  for (std::size_t l = 0; l < ws.lane_count; ++l) {
    if ((eval & (1U << l)) == 0) continue;
    if (base[l] == kNegInf) {
      out[l] = kNegInf;
      continue;
    }
    out[l] = collapsed_log_density(base[l], qsum[l], thinned[l]);
  }
}

void BayesianSrm::update_zeta_collapsed_lanes(
    std::vector<double>* const* states, random::Rng* const* rngs,
    LaneWorkspace& ws, const double* thinned) const {
  const std::size_t params = zeta_supports_.size();
  const unsigned all = (1U << ws.lane_count) - 1U;

  for (std::size_t j = 0; j < params; ++j) {
    const auto& support = zeta_supports_[j];
    const auto density = [&](const double* xs, unsigned active,
                             double* out) {
      for (std::size_t l = 0; l < ws.lane_count; ++l) {
        ws.probe_soa[j * kL + l] = xs[l];
      }
      collapsed_density_lanes(ws.probe_soa.data(), active, thinned, ws,
                              out);
    };
    mcmc::SliceOptions options;
    options.lower = support.lower;
    options.upper = support.upper;
    options.initial_width = (support.upper - support.lower) / 10.0;
    double x[kL];
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      x[l] = std::clamp(ws.zeta_soa[j * kL + l], support.lower + 1e-12,
                        support.upper - 1e-12);
    }
    mcmc::slice_sample_lanes(rngs, x, ws.lane_count, density, options);
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      ws.zeta_soa[j * kL + l] = x[l];
      ws.probe_soa[j * kL + l] = x[l];
      (*states[l])[zeta_offset() + j] = x[l];
    }
    pad_soa(ws.zeta_soa, params, ws.lane_count);
    pad_soa(ws.probe_soa, params, ws.lane_count);
  }

  // Mode-jump move, all lanes in lockstep: the attempt count is fixed, and
  // per attempt each lane draws its own proposal box point followed by its
  // own accept uniform — exactly the scalar independence_metropolis call
  // discipline, so no lane's RNG stream depends on its neighbours.
  constexpr int kModeJumpProposals = 5;
  double current[kL];
  collapsed_density_lanes(ws.zeta_soa.data(), all, thinned, ws, current);
  for (int attempt = 0; attempt < kModeJumpProposals; ++attempt) {
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      for (std::size_t j = 0; j < params; ++j) {
        ws.proposal_soa[j * kL + l] = rngs[l]->uniform(
            zeta_supports_[j].lower, zeta_supports_[j].upper);
      }
    }
    pad_soa(ws.proposal_soa, params, ws.lane_count);
    double proposed[kL];
    collapsed_density_lanes(ws.proposal_soa.data(), all, thinned, ws,
                            proposed);
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      if (std::log(rngs[l]->uniform_open()) < proposed[l] - current[l]) {
        for (std::size_t j = 0; j < params; ++j) {
          const double value = ws.proposal_soa[j * kL + l];
          ws.zeta_soa[j * kL + l] = value;
          ws.probe_soa[j * kL + l] = value;
          (*states[l])[zeta_offset() + j] = value;
        }
        current[l] = proposed[l];
      }
    }
  }
  pad_soa(ws.zeta_soa, params, ws.lane_count);
  pad_soa(ws.probe_soa, params, ws.lane_count);
}

void BayesianSrm::update_zeta_lanes(std::vector<double>* const* states,
                                    random::Rng* const* rngs,
                                    LaneWorkspace& ws) const {
  const std::size_t params = zeta_supports_.size();
  const std::size_t days = data_.days();
  const auto& tables = day_tables(days);
  const lane_kernels::LaneDayData day_data{
      days, data_.total(), data_.counts().data(), data_.cumulative().data()};
  // N is fixed for the whole zeta block, as in the scalar path; residual
  // counts are integers well under 2^53, so the double carry is exact.
  double n_lanes[kL];
  for (std::size_t l = 0; l < ws.lane_count; ++l) {
    n_lanes[l] = static_cast<double>(initial_bugs_of(*states[l]));
  }
  for (std::size_t l = ws.lane_count; l < kL; ++l) {
    n_lanes[l] = n_lanes[0];
  }

  for (std::size_t j = 0; j < params; ++j) {
    const auto& support = zeta_supports_[j];
    const auto density = [&](const double* xs, unsigned active,
                             double* out) {
      // Vanilla support check guards the probed coordinate only, exactly
      // like update_zeta's log_density.
      unsigned eval = 0;
      for (std::size_t l = 0; l < ws.lane_count; ++l) {
        ws.probe_soa[j * kL + l] = xs[l];
        if ((active & (1U << l)) == 0) continue;
        if (xs[l] <= support.lower || xs[l] >= support.upper) {
          out[l] = kNegInf;
        } else {
          eval |= 1U << l;
        }
      }
      if (eval == 0) return;
      lane_kernels::detection_lanes(static_cast<int>(model_->kind()), days,
                                    ws.probe_soa.data(), tables.log_day,
                                    tables.pareto_exponent,
                                    ws.probabilities.data(),
                                    ws.log_survivals.data());
      double kernel[kL];
      lane_kernels::zeta_kernel_lanes(day_data, n_lanes,
                                      ws.probabilities.data(),
                                      ws.log_survivals.data(), kernel);
      for (std::size_t l = 0; l < ws.lane_count; ++l) {
        if ((eval & (1U << l)) != 0) out[l] = kernel[l];
      }
    };
    mcmc::SliceOptions options;
    options.lower = support.lower;
    options.upper = support.upper;
    options.initial_width = (support.upper - support.lower) / 10.0;
    double x[kL];
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      x[l] = std::clamp(ws.zeta_soa[j * kL + l], support.lower + 1e-12,
                        support.upper - 1e-12);
    }
    mcmc::slice_sample_lanes(rngs, x, ws.lane_count, density, options);
    for (std::size_t l = 0; l < ws.lane_count; ++l) {
      ws.zeta_soa[j * kL + l] = x[l];
      ws.probe_soa[j * kL + l] = x[l];
      (*states[l])[zeta_offset() + j] = x[l];
    }
    pad_soa(ws.zeta_soa, params, ws.lane_count);
    pad_soa(ws.probe_soa, params, ws.lane_count);
  }
}

void BayesianSrm::update_lanes(std::size_t lane_count,
                               std::vector<double>* const* states,
                               random::Rng* const* rngs,
                               mcmc::GibbsWorkspace& workspace) const {
  auto* ws = dynamic_cast<LaneWorkspace*>(&workspace);
  SRM_EXPECTS(ws != nullptr && ws->lane_count == lane_count,
              "update_lanes requires the workspace from "
              "make_lane_workspace(lane_count)");
  const std::size_t params = zeta_supports_.size();
  for (std::size_t l = 0; l < lane_count; ++l) {
    SRM_EXPECTS(states[l]->size() == state_size(),
                "state vector has wrong size");
    for (std::size_t j = 0; j < params; ++j) {
      const double value = (*states[l])[zeta_offset() + j];
      ws->zeta_soa[j * kL + l] = value;
      ws->probe_soa[j * kL + l] = value;
    }
  }
  pad_soa(ws->zeta_soa, params, lane_count);
  pad_soa(ws->probe_soa, params, lane_count);

  double survival[kL];
  if (config_.scheme == SamplerScheme::kCollapsed) {
    // Same conditional order as update_with: zeta (collapsed, NB at fixed
    // beta'), then the hyperparameters, then the exact residual draw, with
    // one survival evaluation at the post-update zeta serving all three.
    double thinned[kL] = {};
    if (prior_ == PriorKind::kNegativeBinomial) {
      lane_survivals(*ws, survival);
      for (std::size_t l = 0; l < lane_count; ++l) {
        thinned[l] = thinned_beta((*states[l])[2], survival[l]);
      }
    }
    update_zeta_collapsed_lanes(states, rngs, *ws, thinned);
    lane_survivals(*ws, survival);
    for (std::size_t l = 0; l < lane_count; ++l) {
      auto& state = *states[l];
      if (prior_ == PriorKind::kNegativeBinomial) {
        state[2] = unthinned_beta(thinned[l], survival[l]);
      }
      update_hyperparameters_collapsed(state, *rngs[l], survival[l]);
    }
    for (std::size_t l = 0; l < lane_count; ++l) {
      update_residual(*states[l], *rngs[l], survival[l]);
    }
  } else {
    lane_survivals(*ws, survival);
    for (std::size_t l = 0; l < lane_count; ++l) {
      update_residual(*states[l], *rngs[l], survival[l]);
    }
    for (std::size_t l = 0; l < lane_count; ++l) {
      update_hyperparameters(*states[l], *rngs[l]);
    }
    update_zeta_lanes(states, rngs, *ws);
  }
}

}  // namespace srm::core
