// Golden-trace bit-identity regression tests.
//
// The zero-allocation Gibbs kernel carries a hard contract: workspace
// reuse, batch detection-model calls and function_ref dispatch may remove
// allocation and virtual dispatch, but must not perturb a single bit of any
// sampled value. These tests pin a fixed-seed short run for every
// scheme x prior x model configuration to an FNV-1a digest of the raw
// IEEE-754 bit patterns, captured from the pre-refactor per-day scalar
// implementation. Any reassociation of the floating-point evaluation order
// anywhere in the sampler hot path fails here with probability ~1.
#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "data/datasets.hpp"
#include "mcmc/gibbs.hpp"

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::HyperPriorConfig;
using srm::core::PriorKind;
using srm::core::SamplerScheme;

std::uint64_t fnv1a_append(std::uint64_t hash, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Digest of every retained draw in (chain, parameter, sample) order.
std::uint64_t trace_digest(SamplerScheme scheme, PriorKind prior,
                           int model_id) {
  const auto data = srm::data::sys1_grouped().truncated(67);
  HyperPriorConfig config;
  config.scheme = scheme;
  const BayesianSrm model(prior, static_cast<DetectionModelKind>(model_id),
                          data, config);
  srm::mcmc::GibbsOptions options;
  options.chain_count = 2;
  options.burn_in = 50;
  options.iterations = 120;
  options.seed = 20240624;
  const auto run = srm::mcmc::run_gibbs(model, options);
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    for (std::size_t p = 0; p < run.parameter_names().size(); ++p) {
      for (const double v : run.chain(c).parameter(p)) {
        hash = fnv1a_append(hash, std::bit_cast<std::uint64_t>(v));
      }
    }
  }
  return hash;
}

struct GoldenCase {
  SamplerScheme scheme;
  PriorKind prior;
  int model_id;
  std::uint64_t digest;
};

// Captured from the pre-workspace implementation (commit 72dd8dc) with the
// exact options above; see the measurement notes in EXPERIMENTS.md. The
// collapsed negbin digests were re-pinned under artifact schema version 2,
// when that scan moved to the thinned (alpha0, beta') parametrisation, and
// the collapsed model0..model4 digests of both priors under version 3,
// when their zeta block moved to the sufficient-statistic evaluators
// (DESIGN.md); every other digest is the original.
constexpr GoldenCase kGoldenCases[] = {
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 0, 0x752efd951bb7ab31ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 1, 0xbe5b3406adedd49bULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 2, 0x89c717aa1c6ccba2ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 3, 0xb5228d905b56b28aULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 4, 0xc0b75a4e257d199eULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 5, 0xd323780d1d330734ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 6, 0x0b8f18a2836f7736ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 0,
     0xae45bbede099082fULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 1,
     0xe6366c0961114badULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 2,
     0x2fda78e2accfc46bULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 3,
     0x27915282f443a94dULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 4,
     0x4702f6b87e864214ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 5,
     0x3126b6720cf85a9cULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 6,
     0x196c4b82006740e8ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 0, 0xdb803ddadc8931b2ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 1, 0x2e1f79bdd2cd8d5bULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 2, 0xe5a5fe8e3b6d2c26ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 3, 0x163924ee93faa2abULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 4, 0xb9fac956ef8d99b5ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 5, 0x8b5a9e6aaac3bb87ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 6, 0xf53b92d078a0f5e4ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 0,
     0xafc8c6887f6052f0ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 1,
     0x29913dca136992adULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 2,
     0x3e6e17cc2e60ffdfULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 3,
     0x978ecada2059586cULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 4,
     0xe4785cce3283a229ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 5,
     0xdde18bcf3accc6ecULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 6,
     0x1e5985fc620c3e19ULL},
};

class GoldenTrace : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTrace, MatchesPreRefactorDigest) {
  const auto& c = GetParam();
  EXPECT_EQ(trace_digest(c.scheme, c.prior, c.model_id), c.digest)
      << "scheme=" << (c.scheme == SamplerScheme::kVanilla ? 1 : 0)
      << " prior=" << (c.prior == PriorKind::kNegativeBinomial ? 1 : 0)
      << " model=" << c.model_id;
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
  const auto& c = info.param;
  return std::string(c.scheme == SamplerScheme::kVanilla ? "vanilla"
                                                         : "collapsed") +
         "_" + srm::core::to_string(c.prior) + "_model" +
         std::to_string(c.model_id);
}

INSTANTIATE_TEST_SUITE_P(AllConfigurations, GoldenTrace,
                         ::testing::ValuesIn(kGoldenCases), case_name);

/// A workspace-threaded chain and a workspace-less chain must agree bit for
/// bit: the workspace is scratch only and carries no sampler state.
TEST(GoldenTrace, WorkspaceAndScratchUpdatesAgree) {
  const auto data = srm::data::sys1_grouped().truncated(67);
  for (const auto prior :
       {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
    const BayesianSrm model(prior, DetectionModelKind::kWeibull, data, {});
    srm::random::Rng rng_a(12345);
    srm::random::Rng rng_b(12345);
    auto state_a = model.initial_state(rng_a);
    auto state_b = model.initial_state(rng_b);
    const auto workspace = model.make_workspace();
    ASSERT_NE(workspace, nullptr);
    for (int i = 0; i < 25; ++i) {
      model.update(state_a, rng_a, workspace.get());
      model.update(state_b, rng_b);  // fresh scratch each scan
      ASSERT_EQ(state_a, state_b) << "diverged at scan " << i;
    }
  }
}

}  // namespace
