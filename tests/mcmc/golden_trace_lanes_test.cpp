// Golden-trace pinning for the `chain_lanes` sampler fork.
//
// The lane-parallel executor (mcmc::run_gibbs with
// GibbsOptions::chain_lanes) evaluates the packed chains' densities through
// the support/simd lane kernels, whose transcendentals are not bit-identical
// to libm — so, like `vectorized`, the mode deliberately forks result
// identity and gets its own golden digests here. The digests are
// backend-independent (scalar, SSE2, AVX2 and NEON lanes produce the same
// bits; see support/simd/lanes.hpp) and — the mode's defining contract —
// pack-independent: chain c's draws are the same whether it shares its pack
// with three neighbours or runs alone, which the pack-identity tests below
// pin for every scheme x prior x model configuration.
//
// The scalar path's digests live in golden_trace_test.cpp and must never
// move; this file never touches the default path.
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

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

srm::mcmc::McmcRun lane_run(SamplerScheme scheme, PriorKind prior,
                            int model_id, std::size_t chain_count,
                            std::size_t burn_in, std::size_t iterations,
                            bool parallel_chains = false) {
  const auto data = srm::data::sys1_grouped().truncated(67);
  HyperPriorConfig config;
  config.scheme = scheme;
  const BayesianSrm model(prior, static_cast<DetectionModelKind>(model_id),
                          data, config, /*vectorized=*/false);
  srm::mcmc::GibbsOptions options;
  options.chain_count = chain_count;
  options.burn_in = burn_in;
  options.iterations = iterations;
  options.seed = 20240624;
  options.chain_lanes = true;
  options.parallel_chains = parallel_chains;
  return srm::mcmc::run_gibbs(model, options);
}

std::uint64_t chain_digest(const srm::mcmc::McmcRun& run, std::size_t c) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t p = 0; p < run.parameter_names().size(); ++p) {
    for (const double v : run.chain(c).parameter(p)) {
      hash = fnv1a_append(hash, std::bit_cast<std::uint64_t>(v));
    }
  }
  return hash;
}

std::uint64_t digest_of(const srm::mcmc::McmcRun& run) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    hash = fnv1a_append(hash, chain_digest(run, c));
  }
  return hash;
}

struct LaneCase {
  SamplerScheme scheme;
  PriorKind prior;
  int model_id;
  std::uint64_t digest;
};

std::string case_name(const ::testing::TestParamInfo<LaneCase>& info) {
  const auto& c = info.param;
  return std::string(c.scheme == SamplerScheme::kVanilla ? "vanilla"
                                                         : "collapsed") +
         "_" + srm::core::to_string(c.prior) + "_model" +
         std::to_string(c.model_id);
}

// Captured at the introduction of the lane executor: 2 chains (one pack),
// burn-in 50, 120 retained scans, seed 20240624 — the scalar golden set's
// geometry. Every scheme x prior x model cell is pinned because lane mode,
// unlike `vectorized`, reroutes ALL models (cross-chain batching does not
// depend on per-day kernel width). The collapsed negbin digests re-pinned
// with the scalar ones under artifact schema version 2.
constexpr LaneCase kLaneCases[] = {
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 0,
     0xaad65c30df681db9ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 1,
     0xaacdb6e7e6770e81ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 2,
     0x7dab77dd425a581eULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 3,
     0x5668e728eedcf84dULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 4,
     0x15b6f137996cf671ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 5,
     0x84b1792fccf03349ULL},
    {SamplerScheme::kCollapsed, PriorKind::kPoisson, 6,
     0xd60090b18f66fa3aULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 0,
     0x4a8c833e5f080973ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 1,
     0xed09fafc7df56509ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 2,
     0x55d7f9df7eb7a408ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 3,
     0x30fe832bd25615a2ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 4,
     0x843d4fa743a5511cULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 5,
     0x53a9b805f1e3b9b8ULL},
    {SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial, 6,
     0x9434dd09197eb1beULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 0,
     0x98084e8a43589276ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 1,
     0x4f3bbe77d0f6179aULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 2,
     0x5911bd9ecfbcdb5fULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 3,
     0x775b554b155f9177ULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 4,
     0x7cb387a26767e00dULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 5,
     0xdab26953f2a9f9cfULL},
    {SamplerScheme::kVanilla, PriorKind::kPoisson, 6,
     0x088e7f84e6a90a96ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 0,
     0x14ab93a9a9cc4b30ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 1,
     0xae190fe6a017d6c9ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 2,
     0x8e6eafb4b070447bULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 3,
     0xd20d091cd4d8887bULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 4,
     0x8b04d5ab9b495695ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 5,
     0x81571e66da218f67ULL},
    {SamplerScheme::kVanilla, PriorKind::kNegativeBinomial, 6,
     0xcd55d0e16e749a56ULL},
};

class LaneGoldenTrace : public ::testing::TestWithParam<LaneCase> {};

TEST_P(LaneGoldenTrace, MatchesPinnedDigest) {
  const auto& c = GetParam();
  const auto run = lane_run(c.scheme, c.prior, c.model_id, 2, 50, 120);
  EXPECT_EQ(digest_of(run), c.digest)
      << "actual 0x" << std::hex << digest_of(run);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LaneGoldenTrace,
                         ::testing::ValuesIn(kLaneCases), case_name);

// Pack-size identity: chain c's draws must not depend on how many chains
// share its pack. An 8-chain run has packs {0-3},{4-7}; the 5..7-chain runs
// re-pack the tail chains into partial packs of 1..3, so comparing per-chain
// digests across chain counts exercises every pack size and lane position.
class LanePackIdentity : public ::testing::TestWithParam<LaneCase> {};

TEST_P(LanePackIdentity, ChainsAreIndependentOfPackSize) {
  const auto& c = GetParam();
  const auto reference = lane_run(c.scheme, c.prior, c.model_id, 8, 20, 40);
  for (const std::size_t chain_count : {1u, 2u, 3u, 5u, 6u, 7u}) {
    const auto packed =
        lane_run(c.scheme, c.prior, c.model_id, chain_count, 20, 40);
    for (std::size_t chain = 0; chain < chain_count; ++chain) {
      EXPECT_EQ(chain_digest(packed, chain), chain_digest(reference, chain))
          << "chain " << chain << " of " << chain_count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LanePackIdentity,
                         ::testing::ValuesIn(kLaneCases), case_name);

TEST(LaneGoldenTraceThreads, WorkerCountDoesNotMoveLaneDraws) {
  // Packs fan out on the runtime pool when parallel_chains is on; the
  // retained draws must be bit-identical to serial execution.
  for (const int model_id : {0, 3}) {
    const auto serial =
        lane_run(SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial,
                 model_id, 8, 20, 40, /*parallel_chains=*/false);
    const auto parallel =
        lane_run(SamplerScheme::kCollapsed, PriorKind::kNegativeBinomial,
                 model_id, 8, 20, 40, /*parallel_chains=*/true);
    EXPECT_EQ(digest_of(serial), digest_of(parallel)) << "model" << model_id;
  }
}

TEST(LaneGoldenTrace, StatisticallyEquivalentToScalar) {
  // The fork changes bits, not the posterior: each parameter's lane-mode
  // posterior mean must sit well inside the scalar run's Monte Carlo
  // spread. Model 0 is included deliberately — unlike `vectorized`, lane
  // mode reroutes the homogeneous models too.
  const auto data = srm::data::sys1_grouped().truncated(67);
  for (const int model_id : {0, 2, 4}) {
    HyperPriorConfig config;
    config.scheme = SamplerScheme::kCollapsed;
    const BayesianSrm model(PriorKind::kPoisson,
                            static_cast<DetectionModelKind>(model_id), data,
                            config, /*vectorized=*/false);
    srm::mcmc::GibbsOptions options;
    options.chain_count = 2;
    options.burn_in = 50;
    options.iterations = 120;
    options.seed = 20240624;
    options.parallel_chains = false;
    const auto scalar = srm::mcmc::run_gibbs(model, options);
    options.chain_lanes = true;
    const auto lanes = srm::mcmc::run_gibbs(model, options);

    const std::size_t params = scalar.parameter_names().size();
    for (std::size_t p = 0; p < params; ++p) {
      std::vector<double> s_draws, l_draws;
      for (std::size_t c = 0; c < scalar.chain_count(); ++c) {
        const auto s_chain = scalar.chain(c).parameter(p);
        const auto l_chain = lanes.chain(c).parameter(p);
        s_draws.insert(s_draws.end(), s_chain.begin(), s_chain.end());
        l_draws.insert(l_draws.end(), l_chain.begin(), l_chain.end());
      }
      const auto mean = [](const std::vector<double>& xs) {
        double sum = 0.0;
        for (const double x : xs) sum += x;
        return sum / static_cast<double>(xs.size());
      };
      const double s_mean = mean(s_draws);
      const double l_mean = mean(l_draws);
      double ss = 0.0;
      for (const double x : s_draws) ss += (x - s_mean) * (x - s_mean);
      const double sd =
          std::sqrt(ss / static_cast<double>(s_draws.size() - 1));
      EXPECT_LE(std::abs(l_mean - s_mean), 0.5 * sd + 1e-9)
          << "model" << model_id << " parameter "
          << scalar.parameter_names()[p];
    }
  }
}

}  // namespace
