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
                           DetectionModelKind model_kind,
                           std::size_t burn_in = 50) {
  const auto data = srm::data::sys1_grouped().truncated(67);
  HyperPriorConfig config;
  config.scheme = scheme;
  const BayesianSrm model(prior, model_kind, data, config);
  srm::mcmc::GibbsOptions options;
  options.chain_count = 2;
  options.burn_in = burn_in;
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
// (DESIGN.md). Every collapsed digest was re-pinned under version 4, when
// the zeta kernel after burn-in became the one frozen by end_burn_in (the
// burn-in kernel is pinned by AdaptiveKernelBurnIn below). The collapsed
// model1 and model2 digests of both priors were re-pinned under version 6,
// when their evaluators became products logged once and log Q moved in its
// last bits; model0, model3 and model4 keep their log Q formulas and did not
// move. Every collapsed digest was re-pinned under version 7, when the
// frozen kernel's coordinate slices became one elliptical slice move. Every
// vanilla digest is the original.
constexpr GoldenCase kGoldenCases[] = {
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 0, 0x2251dabc4f784b6eULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 1, 0x90d13f8a04cdb7fcULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 2, 0xac291a7be0c38b26ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 3, 0xdc39d7f431e90221ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 4, 0x4e007c900d99e1fdULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 5, 0x25eea2f4195d0e42ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 6, 0xbe57ed602213e095ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 0,
     0x3fad21e42aa7bac2ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 1,
     0x2bb0631c39a92526ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 2,
     0xdaeb37046d753c28ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 3,
     0xa5b0908f4b947977ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 4,
     0x26bfd42d97b0700bULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 5,
     0x05780d487e36a96fULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 6,
     0x5a0970a8ca32d933ULL},
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
  EXPECT_EQ(trace_digest(c.scheme, c.prior,
                         static_cast<DetectionModelKind>(c.model_id)),
            c.digest)
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

/// A burn-in of 10 scans leaves 5 in its second half, too few for
/// BayesianSrm::end_burn_in to fit a kernel, so these chains run the burn-in
/// kernel throughout.
constexpr std::size_t kBurnInTooShortToFreeze = 10;

struct BurnInCase {
  PriorKind prior;
  DetectionModelKind model;
  std::uint64_t digest;
};

// Every collapsed configuration, the size-biased family's included,
// captured before the post-burn-in kernel was frozen at the end of burn-in
// (artifact schema version 3): freezing did not move the burn-in kernel a
// bit. The model1, model2 and size-biased entries were re-pinned under
// version 6 with the product-form evaluators.
constexpr BurnInCase kBurnInCases[] = {
    {PriorKind::kPoisson, DetectionModelKind::kConstant, 0x4ff10bf0088a1617ULL},
    {PriorKind::kPoisson, DetectionModelKind::kPadgettSpurrier,
     0x70e6a4bd06f690f7ULL},
    {PriorKind::kPoisson, DetectionModelKind::kLogLogistic,
     0x02a1965daa19fd4aULL},
    {PriorKind::kPoisson, DetectionModelKind::kPareto, 0xab37d35d22a28710ULL},
    {PriorKind::kPoisson, DetectionModelKind::kWeibull, 0xf83aac5f41f07d63ULL},
    {PriorKind::kPoisson, DetectionModelKind::kRayleigh, 0xb65f1c8850303377ULL},
    {PriorKind::kPoisson, DetectionModelKind::kLearningCurve,
     0x569e3507509980d5ULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kConstant,
     0xede5793c0aae7a9cULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kPadgettSpurrier,
     0x2bd8019dc1ab41e3ULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kLogLogistic,
     0xee7e0e1899ac9e4dULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kPareto,
     0x9754a69abf0733c8ULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kWeibull,
     0x686b01eeef203768ULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kRayleigh,
     0xf352358c01651c6bULL},
    {PriorKind::kNegativeBinomial, DetectionModelKind::kLearningCurve,
     0x91000997501bbc9bULL},
    {PriorKind::kSizeBiased, DetectionModelKind::kSizeBiasedMultinomial,
     0x4221c2bfc3d2542bULL},
};

class AdaptiveKernelBurnIn : public ::testing::TestWithParam<BurnInCase> {};

TEST_P(AdaptiveKernelBurnIn, TooShortToFreezeMatchesBurnInKernelDigest) {
  const auto& c = GetParam();
  EXPECT_EQ(trace_digest(SamplerScheme::kCollapsed, c.prior, c.model,
                         kBurnInTooShortToFreeze),
            c.digest)
      << srm::core::to_string(c.prior) << " "
      << srm::core::to_string(c.model);
}

std::string burn_in_case_name(
    const ::testing::TestParamInfo<BurnInCase>& info) {
  return srm::core::to_string(info.param.prior) + "_" +
         srm::core::to_string(info.param.model);
}

INSTANTIATE_TEST_SUITE_P(CollapsedConfigurations, AdaptiveKernelBurnIn,
                         ::testing::ValuesIn(kBurnInCases),
                         burn_in_case_name);

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
