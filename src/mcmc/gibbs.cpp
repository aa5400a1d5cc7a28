#include "mcmc/gibbs.hpp"

#include "runtime/seed_sequence.hpp"
#include "runtime/task_group.hpp"
#include "support/error.hpp"

namespace srm::mcmc {

namespace {

void run_one_chain(const GibbsModel& model, const GibbsOptions& options,
                   random::Rng rng, std::size_t chain_index,
                   std::span<PosteriorAccumulator* const> sinks) {
  // One workspace per chain: chains share the const model concurrently, so
  // reusable scratch has to be chain-local.
  const auto workspace = model.make_workspace();
  std::vector<double> state = model.initial_state(rng);
  for (std::size_t i = 0; i < options.burn_in; ++i) {
    model.update(state, rng, workspace.get());
  }
  model.end_burn_in(workspace.get());
  for (std::size_t i = 0; i < options.iterations; ++i) {
    for (std::size_t t = 0; t < options.thin; ++t) {
      model.update(state, rng, workspace.get());
    }
    for (PosteriorAccumulator* sink : sinks) {
      sink->accumulate(chain_index, state, workspace.get());
    }
  }
}

}  // namespace

void run_gibbs(const GibbsModel& model, const GibbsOptions& options,
               std::span<PosteriorAccumulator* const> sinks) {
  SRM_EXPECTS(options.chain_count >= 1, "run_gibbs requires >= 1 chain");
  SRM_EXPECTS(options.iterations >= 1, "run_gibbs requires >= 1 iteration");
  SRM_EXPECTS(options.thin >= 1, "run_gibbs requires thin >= 1");

  // Derive one independent deterministic stream per chain up front, so the
  // result is identical whether chains run serially or in parallel.
  runtime::SeedSequence seeds(options.seed);
  auto chain_rngs = seeds.streams(options.chain_count);

  if (options.parallel_chains && options.chain_count > 1) {
    runtime::TaskGroup group;
    for (std::size_t c = 0; c < options.chain_count; ++c) {
      group.run([&model, &options, &chain_rngs, sinks, c] {
        run_one_chain(model, options, chain_rngs[c], c, sinks);
      });
    }
    group.wait();
  } else {
    for (std::size_t c = 0; c < options.chain_count; ++c) {
      run_one_chain(model, options, chain_rngs[c], c, sinks);
    }
  }
}

McmcRun run_gibbs(const GibbsModel& model, const GibbsOptions& options) {
  McmcRun run(model.parameter_names(), options.chain_count,
              options.iterations);
  PosteriorAccumulator* const sink = &run;
  run_gibbs(model, options, std::span(&sink, 1));
  return run;
}

}  // namespace srm::mcmc
