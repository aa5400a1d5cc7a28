// Generic multi-chain Gibbs driver — the in-library replacement for JAGS.
//
// A model exposes its parameter names, an over-dispersed initializer and a
// full Gibbs scan; the driver owns burn-in, thinning, per-chain seeding and
// (optionally) fanning the chains out on the shared srm::runtime pool.
// Everything is deterministic given the master seed: chains draw from
// substreams derived by runtime::SeedSequence, so the retained traces are
// bit-identical for any worker count (and for serial execution).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mcmc/accumulator.hpp"
#include "mcmc/trace.hpp"
#include "random/rng.hpp"

namespace srm::mcmc {

/// Opaque per-chain storage a model may request from the driver: scratch
/// buffers, plus the chain's frozen post-burn-in kernel.
///
/// The driver creates one workspace per chain (chains run concurrently on
/// the shared pool against a single const model, so per-chain state cannot
/// live in the model itself) and passes it back into every update() call
/// on that chain. Models that buffer per-scan temporaries here run
/// allocation-free in steady state. Until end_burn_in() is called on it a
/// workspace only caches buffers and burn-in statistics, so its contents
/// never affect the sampled values. end_burn_in() may freeze a tuned kernel
/// into it; every later update() through that workspace runs the frozen
/// kernel, which is fixed, so the retained draws form a valid chain.
class GibbsWorkspace {
 public:
  virtual ~GibbsWorkspace() = default;
};

/// Interface every Gibbs-sampled model implements.
class GibbsModel {
 public:
  virtual ~GibbsModel() = default;

  /// Names of the monitored parameters, in state-vector order.
  [[nodiscard]] virtual std::vector<std::string> parameter_names() const = 0;

  /// A valid, randomly over-dispersed starting state (one per chain, so
  /// Gelman-Rubin diagnostics are meaningful).
  [[nodiscard]] virtual std::vector<double> initial_state(
      random::Rng& rng) const = 0;

  /// Creates the per-chain scratch workspace for this model, or nullptr if
  /// the model keeps no reusable buffers.
  [[nodiscard]] virtual std::unique_ptr<GibbsWorkspace> make_workspace()
      const {
    return nullptr;
  }

  /// One full Gibbs scan updating `state` in place. `workspace` is either
  /// nullptr or the result of this model's make_workspace(); until
  /// end_burn_in() freezes a kernel into the workspace, updates must
  /// produce bit-identical draws either way.
  virtual void update(std::vector<double>& state, random::Rng& rng,
                      GibbsWorkspace* workspace) const = 0;

  /// Called once per chain by run_gibbs where burn-in ends, with the
  /// chain's workspace (nullptr when make_workspace() returned none). A
  /// model may freeze a post-burn-in kernel tuned from what its burn-in
  /// scans recorded in the workspace; the default keeps the burn-in kernel.
  virtual void end_burn_in(GibbsWorkspace* /*workspace*/) const {}

  /// Convenience scan without a reusable workspace (tests, one-off scans).
  /// Derived classes re-expose it with `using GibbsModel::update;`.
  void update(std::vector<double>& state, random::Rng& rng) const {
    update(state, rng, nullptr);
  }
};

struct GibbsOptions {
  std::size_t chain_count = 2;
  std::size_t burn_in = 1000;    ///< discarded scans per chain
  std::size_t iterations = 4000; ///< retained scans per chain (before thinning)
  std::size_t thin = 1;          ///< keep every thin-th scan
  std::uint64_t seed = 20240624; ///< master seed; chains derive substreams
  bool parallel_chains = true;   ///< schedule chains on the runtime pool
};

/// Runs the sampler and feeds every retained draw to each sink in
/// `sinks`, in order, from the chain's own thread, with that chain's
/// workspace — see PosteriorAccumulator for the threading contract.
/// Sampling order and retained values are independent of `sinks`; no draw
/// is stored unless a sink stores it.
void run_gibbs(const GibbsModel& model, const GibbsOptions& options,
               std::span<PosteriorAccumulator* const> sinks);

/// Runs the sampler with an McmcRun as the only sink and returns it:
/// every retained draw, per chain, in emission order.
McmcRun run_gibbs(const GibbsModel& model, const GibbsOptions& options);

}  // namespace srm::mcmc
