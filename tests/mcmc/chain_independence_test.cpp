// Chain independence of the Gibbs scan.
//
// A chain's draws are a function of its own seed substream and nothing
// else: not of how many chains the run holds, and not of which other chains
// were scanned through the same model and workspace in between. The sweep,
// the serve cache and every multi-chain diagnostic rely on this (chain c of
// a 4-chain fit is chain c of a 2-chain fit). These tests pin it for every
// scheme x prior x model configuration.
//
// The suites keep the names they had when chains could also run packed into
// SIMD lanes, where the same contract was stated per pack; every run now
// takes the scalar scan, and a "pack" below is the set of chains scanned
// round-robin through one shared model and workspace.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
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
using srm::random::Rng;

struct ConfigCase {
  SamplerScheme scheme;
  PriorKind prior;
  int model_id;
};

std::string name_of(const ConfigCase& c) {
  return std::string(c.scheme == SamplerScheme::kVanilla ? "vanilla"
                                                         : "collapsed") +
         "_" + srm::core::to_string(c.prior) + "_model" +
         std::to_string(c.model_id);
}

std::string config_name(const ::testing::TestParamInfo<ConfigCase>& info) {
  return name_of(info.param);
}

std::vector<ConfigCase> all_configs() {
  std::vector<ConfigCase> cases;
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      for (int model_id = 0; model_id <= 6; ++model_id) {
        cases.push_back({scheme, prior, model_id});
      }
    }
  }
  return cases;
}

BayesianSrm make_model(const ConfigCase& c) {
  HyperPriorConfig config;
  config.scheme = c.scheme;
  return BayesianSrm(c.prior, static_cast<DetectionModelKind>(c.model_id),
                     srm::data::sys1_grouped().truncated(67), config);
}

// --- chain count ----------------------------------------------------------

std::uint64_t fnv1a_append(std::uint64_t hash, std::uint64_t bits) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// A configuration and the master seed every run of it shares.
struct SeededCase {
  ConfigCase config;
  std::uint64_t seed;
};

std::vector<SeededCase> seeded_configs() {
  std::vector<SeededCase> cases;
  for (const auto& config : all_configs()) {
    cases.push_back({config, 20240624});
  }
  return cases;
}

std::string seeded_name(const ::testing::TestParamInfo<SeededCase>& info) {
  return name_of(info.param.config);
}

srm::mcmc::McmcRun run_chains(const BayesianSrm& model,
                              std::size_t chain_count, std::uint64_t seed) {
  srm::mcmc::GibbsOptions options;
  options.chain_count = chain_count;
  options.burn_in = 20;
  options.iterations = 40;
  options.seed = seed;
  options.parallel_chains = false;
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

// Chain c's draws must not depend on how many chains the run holds: every
// chain of a 1..7-chain run equals the same chain of an 8-chain run.
class LanePackIdentity : public ::testing::TestWithParam<SeededCase> {};

TEST_P(LanePackIdentity, ChainsAreIndependentOfPackSize) {
  const auto& c = GetParam();
  const auto model = make_model(c.config);
  const auto reference = run_chains(model, 8, c.seed);
  for (const std::size_t chain_count : {1u, 2u, 3u, 5u, 6u, 7u}) {
    const auto run = run_chains(model, chain_count, c.seed);
    for (std::size_t chain = 0; chain < chain_count; ++chain) {
      EXPECT_EQ(chain_digest(run, chain), chain_digest(reference, chain))
          << "chain " << chain << " of " << chain_count;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LanePackIdentity,
                         ::testing::ValuesIn(seeded_configs()), seeded_name);

// --- RNG accounting -------------------------------------------------------

constexpr std::uint64_t kChainSeeds[] = {0xaaaa1111ULL, 0xbbbb2222ULL,
                                         0xcccc3333ULL, 0xdddd4444ULL};

struct Chain {
  std::vector<double> state;
  Rng rng{0};
};

Chain seeded_chain(const BayesianSrm& model, std::size_t index) {
  Chain chain;
  chain.rng = Rng(kChainSeeds[index]);
  chain.state = model.initial_state(chain.rng);
  return chain;
}

// Scans `chain_count` chains round-robin, all through one workspace, and
// returns their end states and RNGs.
std::vector<Chain> run_interleaved(const BayesianSrm& model,
                                   std::size_t chain_count, int scans) {
  std::vector<Chain> chains;
  for (std::size_t c = 0; c < chain_count; ++c) {
    chains.push_back(seeded_chain(model, c));
  }
  const auto workspace = model.make_workspace();
  for (int s = 0; s < scans; ++s) {
    for (auto& chain : chains) {
      model.update(chain.state, chain.rng, workspace.get());
    }
  }
  return chains;
}

// The same chain scanned alone with a workspace of its own.
Chain run_solo(const BayesianSrm& model, std::size_t index, int scans) {
  auto chain = seeded_chain(model, index);
  const auto workspace = model.make_workspace();
  for (int s = 0; s < scans; ++s) {
    model.update(chain.state, chain.rng, workspace.get());
  }
  return chain;
}

void expect_interleaved_equals_solo(const BayesianSrm& model,
                                    std::size_t chain_count, int scans) {
  auto interleaved = run_interleaved(model, chain_count, scans);
  for (std::size_t c = 0; c < chain_count; ++c) {
    auto solo = run_solo(model, c, scans);
    ASSERT_EQ(interleaved[c].state.size(), solo.state.size());
    for (std::size_t p = 0; p < solo.state.size(); ++p) {
      EXPECT_EQ(interleaved[c].state[p], solo.state[p])
          << "chain " << c << " parameter " << p << " diverged from solo";
    }
    // Engine-position equality: the chain consumed exactly the solo number
    // of variates, so the next raw outputs must coincide.
    EXPECT_EQ(interleaved[c].rng.next_u64(), solo.rng.next_u64())
        << "chain " << c << " consumed a different number of variates";
  }
}

// A chain's RNG advances only on its own draws, and the shared workspace
// carries nothing from one chain's scan into the next chain's.
class LaneRngAccounting : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(LaneRngAccounting, FullPackMatchesSoloDrawForDraw) {
  expect_interleaved_equals_solo(make_model(GetParam()), 4, 20);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, LaneRngAccounting,
                         ::testing::ValuesIn(all_configs()), config_name);

TEST(LaneRngAccountingPartial, PacksOfTwoAndThreeMatchSolo) {
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    const auto model =
        make_model({scheme, PriorKind::kNegativeBinomial, 3});
    expect_interleaved_equals_solo(model, 2, 20);
    expect_interleaved_equals_solo(model, 3, 20);
  }
}

TEST(LaneRngAccountingPartial, LanePositionDoesNotLeakAcrossScans) {
  // Long horizon on one config: any off-by-one draw would compound over
  // 100 scans and surface as a state or engine divergence.
  expect_interleaved_equals_solo(
      make_model({SamplerScheme::kCollapsed, PriorKind::kPoisson, 2}), 4,
      100);
}

}  // namespace
