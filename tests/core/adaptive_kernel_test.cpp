// The collapsed scan's adaptive burn-in: BayesianSrm::end_burn_in fits the
// post-burn-in zeta kernel (one elliptical slice move and the mode jumps,
// all on the burn-in Gaussian) from the second half of burn-in and freezes
// it into the chain's workspace (DESIGN.md, Multimodality). These tests pin
// when it freezes, that the frozen kernel is per chain, and that it keeps
// targeting the collapsed posterior. The burn-in kernel's digests are
// pinned in tests/mcmc/golden_trace_test.cpp (AdaptiveKernelBurnIn).
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"
#include "random/rng.hpp"

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::HyperPriorConfig;
using srm::core::PriorKind;
using srm::core::SamplerScheme;

BayesianSrm make_cell(PriorKind prior, DetectionModelKind kind,
                      SamplerScheme scheme = SamplerScheme::kCollapsed) {
  HyperPriorConfig config;
  config.scheme = scheme;
  return BayesianSrm(prior, kind, srm::data::sys1_grouped().truncated(67),
                     config);
}

/// Whether the hook froze a kernel after `scans` workspace scans.
bool frozen_after(const BayesianSrm& model, int scans) {
  srm::random::Rng rng(31);
  auto state = model.initial_state(rng);
  const auto workspace = model.make_workspace();
  for (int i = 0; i < scans; ++i) model.update(state, rng, workspace.get());
  model.end_burn_in(workspace.get());
  return dynamic_cast<const BayesianSrm::Workspace&>(*workspace)
      .kernel_frozen();
}

TEST(AdaptiveKernel, FreezesFromTenSecondHalfScans) {
  // The second half of 18 scans holds 9, too few to fit; that of 19 holds
  // the last 10.
  for (const auto prior : {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
    for (const auto kind : {DetectionModelKind::kConstant,
                            DetectionModelKind::kLogLogistic}) {
      const auto model = make_cell(prior, kind);
      EXPECT_FALSE(frozen_after(model, 18)) << static_cast<int>(kind);
      EXPECT_TRUE(frozen_after(model, 19)) << static_cast<int>(kind);
    }
  }
}

TEST(AdaptiveKernel, VanillaSchemeNeverFreezes) {
  const auto model = make_cell(PriorKind::kPoisson,
                               DetectionModelKind::kLogLogistic,
                               SamplerScheme::kVanilla);
  EXPECT_FALSE(frozen_after(model, 100));
}

TEST(AdaptiveKernel, HookWithoutWorkspaceIsANoOp) {
  const auto model =
      make_cell(PriorKind::kPoisson, DetectionModelKind::kLogLogistic);
  EXPECT_NO_THROW(model.end_burn_in(nullptr));
}

TEST(AdaptiveKernel, FrozenKernelChangesTheDrawsAfterTheHook) {
  // Same burn-in, same RNG stream: the scans after the hook differ from
  // the burn-in kernel's, while the burn-in scans themselves agree.
  const auto model =
      make_cell(PriorKind::kPoisson, DetectionModelKind::kLogLogistic);
  srm::random::Rng rng_a(77);
  srm::random::Rng rng_b(77);
  auto state_a = model.initial_state(rng_a);
  auto state_b = model.initial_state(rng_b);
  const auto workspace_a = model.make_workspace();
  const auto workspace_b = model.make_workspace();
  for (int i = 0; i < 40; ++i) {
    model.update(state_a, rng_a, workspace_a.get());
    model.update(state_b, rng_b, workspace_b.get());
  }
  ASSERT_EQ(state_a, state_b);
  model.end_burn_in(workspace_a.get());
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) {
    model.update(state_a, rng_a, workspace_a.get());
    model.update(state_b, rng_b, workspace_b.get());
    diverged = state_a != state_b;
  }
  EXPECT_TRUE(diverged);
}

TEST(AdaptiveKernel, SerialAndParallelChainsAgree) {
  // Adaptation state lives in each chain's workspace: chains frozen
  // concurrently on the pool reproduce the serial run bit for bit.
  for (const auto prior : {PriorKind::kPoisson, PriorKind::kNegativeBinomial,
                           PriorKind::kSizeBiased}) {
    const auto kind = prior == PriorKind::kSizeBiased
                          ? DetectionModelKind::kSizeBiasedMultinomial
                          : DetectionModelKind::kLogLogistic;
    const auto model = make_cell(prior, kind);
    srm::mcmc::GibbsOptions options;
    options.chain_count = 4;
    options.burn_in = 60;
    options.iterations = 80;
    options.seed = 5;
    options.parallel_chains = true;
    const auto parallel = srm::mcmc::run_gibbs(model, options);
    options.parallel_chains = false;
    const auto serial = srm::mcmc::run_gibbs(model, options);
    for (std::size_t p = 0; p < model.state_size(); ++p) {
      EXPECT_EQ(parallel.pooled(p), serial.pooled(p))
          << srm::core::to_string(prior) << " parameter " << p;
    }
  }
}

TEST(AdaptiveKernel, FrozenChainsStayInsideTheSupport) {
  // The elliptical move and the mixture proposal map Gaussian points
  // through the scaled logit; a point that rounds onto a bound must be
  // rejected, never accepted.
  for (const auto kind :
       {DetectionModelKind::kConstant, DetectionModelKind::kPadgettSpurrier,
        DetectionModelKind::kLogLogistic, DetectionModelKind::kPareto,
        DetectionModelKind::kWeibull}) {
    const auto model = make_cell(PriorKind::kNegativeBinomial, kind);
    srm::mcmc::GibbsOptions options;
    options.chain_count = 2;
    options.burn_in = 100;
    options.iterations = 400;
    options.seed = 11;
    const auto run = srm::mcmc::run_gibbs(model, options);
    for (std::size_t c = 0; c < run.chain_count(); ++c) {
      for (std::size_t i = 0; i < run.chain(c).sample_count(); ++i) {
        std::vector<double> state(model.state_size());
        for (std::size_t p = 0; p < state.size(); ++p) {
          state[p] = run.chain(c).parameter(p)[i];
        }
        ASSERT_TRUE(std::isfinite(model.log_joint(state)))
            << "model" << static_cast<int>(kind) << " chain " << c
            << " draw " << i;
      }
    }
  }
}

}  // namespace
