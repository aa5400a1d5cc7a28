// Tests for the multi-chain Gibbs driver using a model with a known exact
// answer: a bivariate normal with correlation rho, whose Gibbs conditionals
// are x | y ~ N(rho y, 1 - rho^2).
#include "mcmc/gibbs.hpp"

#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "random/samplers.hpp"
#include "support/error.hpp"

namespace {

using srm::mcmc::GibbsModel;
using srm::mcmc::GibbsOptions;
using srm::mcmc::run_gibbs;

class BivariateNormal final : public GibbsModel {
 public:
  explicit BivariateNormal(double rho) : rho_(rho) {}

  std::vector<std::string> parameter_names() const override {
    return {"x", "y"};
  }
  std::vector<double> initial_state(srm::random::Rng& rng) const override {
    return {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  }
  void update(std::vector<double>& state, srm::random::Rng& rng,
              srm::mcmc::GibbsWorkspace*) const override {
    const double sd = std::sqrt(1.0 - rho_ * rho_);
    state[0] = srm::random::sample_normal(rng, rho_ * state[1], sd);
    state[1] = srm::random::sample_normal(rng, rho_ * state[0], sd);
  }
  using GibbsModel::update;

 private:
  double rho_;
};

TEST(GibbsDriver, RecoversBivariateNormalMoments) {
  const BivariateNormal model(0.6);
  GibbsOptions options;
  options.chain_count = 2;
  options.burn_in = 500;
  options.iterations = 20000;
  options.seed = 7;
  const auto run = run_gibbs(model, options);

  const auto x = run.pooled("x");
  const auto y = run.pooled("y");
  ASSERT_EQ(x.size(), 40000u);
  double sx = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double n = static_cast<double>(x.size());
  EXPECT_NEAR(sx / n, 0.0, 0.05);
  EXPECT_NEAR(sxx / n, 1.0, 0.06);
  EXPECT_NEAR(sxy / n, 0.6, 0.05);  // correlation
}

TEST(GibbsDriver, DeterministicGivenSeed) {
  const BivariateNormal model(0.3);
  GibbsOptions options;
  options.chain_count = 2;
  options.burn_in = 10;
  options.iterations = 100;
  options.seed = 99;
  const auto a = run_gibbs(model, options);
  const auto b = run_gibbs(model, options);
  EXPECT_EQ(a.pooled("x"), b.pooled("x"));
  EXPECT_EQ(a.pooled("y"), b.pooled("y"));
}

TEST(GibbsDriver, ParallelAndSerialAgree) {
  const BivariateNormal model(0.3);
  GibbsOptions options;
  options.chain_count = 3;
  options.burn_in = 10;
  options.iterations = 200;
  options.seed = 123;
  options.parallel_chains = true;
  const auto parallel = run_gibbs(model, options);
  options.parallel_chains = false;
  const auto serial = run_gibbs(model, options);
  EXPECT_EQ(parallel.pooled("x"), serial.pooled("x"));
}

/// Counts scans and burn-in hook calls per workspace.
class HookProbe final : public GibbsModel {
 public:
  struct Workspace final : srm::mcmc::GibbsWorkspace {
    std::size_t scans = 0;
    std::size_t hooks = 0;
  };

  std::vector<std::string> parameter_names() const override { return {"x"}; }
  std::vector<double> initial_state(srm::random::Rng&) const override {
    return {0.0};
  }
  std::unique_ptr<srm::mcmc::GibbsWorkspace> make_workspace() const override {
    return std::make_unique<Workspace>();
  }
  void update(std::vector<double>& state, srm::random::Rng&,
              srm::mcmc::GibbsWorkspace* workspace) const override {
    auto& ws = dynamic_cast<Workspace&>(*workspace);
    state[0] = static_cast<double>(++ws.scans * 10 + ws.hooks);
  }
  void end_burn_in(srm::mcmc::GibbsWorkspace* workspace) const override {
    ++dynamic_cast<Workspace&>(*workspace).hooks;
  }
  using GibbsModel::update;
};

TEST(GibbsDriver, EndBurnInRunsOncePerChainWhereBurnInEnds) {
  // Each retained draw encodes scan * 10 + hooks seen so far: every chain's
  // hook runs exactly once, on its own workspace, between the last burn-in
  // scan and the first retained one.
  const HookProbe model;
  GibbsOptions options;
  options.chain_count = 3;
  options.burn_in = 7;
  options.iterations = 4;
  const auto run = run_gibbs(model, options);
  for (std::size_t c = 0; c < 3; ++c) {
    const auto draws = run.chain(c).parameter(0);
    EXPECT_EQ(std::vector<double>(draws.begin(), draws.end()),
              (std::vector<double>{81.0, 91.0, 101.0, 111.0}))
        << "chain " << c;
  }
}

TEST(GibbsDriver, ThinningReducesRetainedSamples) {
  const BivariateNormal model(0.9);
  GibbsOptions options;
  options.chain_count = 1;
  options.burn_in = 0;
  options.iterations = 50;
  options.thin = 4;
  const auto run = run_gibbs(model, options);
  EXPECT_EQ(run.chain(0).sample_count(), 50u);
}

TEST(GibbsDriver, DifferentSeedsDiffer) {
  const BivariateNormal model(0.3);
  GibbsOptions options;
  options.chain_count = 1;
  options.burn_in = 0;
  options.iterations = 50;
  options.seed = 1;
  const auto a = run_gibbs(model, options);
  options.seed = 2;
  const auto b = run_gibbs(model, options);
  EXPECT_NE(a.pooled("x"), b.pooled("x"));
}

TEST(GibbsDriver, InvalidOptionsThrow) {
  const BivariateNormal model(0.3);
  GibbsOptions options;
  options.chain_count = 0;
  EXPECT_THROW(run_gibbs(model, options), srm::InvalidArgument);
  options.chain_count = 1;
  options.iterations = 0;
  EXPECT_THROW(run_gibbs(model, options), srm::InvalidArgument);
  options.iterations = 10;
  options.thin = 0;
  EXPECT_THROW(run_gibbs(model, options), srm::InvalidArgument);
}

TEST(GibbsDriver, ChainsStartOverdispersed) {
  // Different chains must receive different initial states (distinct
  // substreams) — verified via the first retained samples with no burn-in.
  const BivariateNormal model(0.0);
  GibbsOptions options;
  options.chain_count = 4;
  options.burn_in = 0;
  options.iterations = 1;
  const auto run = run_gibbs(model, options);
  std::set<double> firsts;
  for (std::size_t c = 0; c < 4; ++c) {
    firsts.insert(run.chain(c).parameter(0)[0]);
  }
  EXPECT_EQ(firsts.size(), 4u);
}

}  // namespace
