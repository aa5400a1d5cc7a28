// The streaming posterior pipeline against the trace-based references.
//
// fit_cell() scores every retained draw in-scan through its sinks and
// never stores a draw. An McmcRun attached as one more sink records the
// very draws those sinks saw, so every streamed number can be pinned to
// the trace-based helper run over the recording — PSRF to gelman_rubin(),
// Geweke to geweke(), the residual summary to
// summarize_residual_posterior(), WAIC to a fresh scorer walking the
// recorded draws — bitwise, for every sampler scheme, prior and detection
// model (2 x 2 x 7 = 28 configurations).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/bayes_srm.hpp"
#include "core/fit.hpp"
#include "core/loo.hpp"
#include "core/posterior.hpp"
#include "core/streaming.hpp"
#include "data/datasets.hpp"
#include "diagnostics/ess.hpp"
#include "diagnostics/gelman_rubin.hpp"
#include "diagnostics/geweke.hpp"
#include "diagnostics/online.hpp"
#include "mcmc/gibbs.hpp"
#include "stats/summary.hpp"

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::ObservationResult;
using srm::core::PriorKind;
using srm::core::SamplerScheme;
using srm::mcmc::McmcRun;

srm::mcmc::GibbsOptions small_gibbs() {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 40;
  gibbs.iterations = 120;  // >= 25 for LOO, >= 40 per chain for Geweke
  gibbs.seed = 20240624;
  return gibbs;
}

/// Scores the draws recorded in `run` with a scorer of its own: one fresh
/// workspace per chain, draws in recorded order.
void score_recorded(const BayesianSrm& model, const McmcRun& run,
                    srm::core::StreamingScorer& scorer) {
  std::vector<double> state(model.state_size());
  for (std::size_t c = 0; c < run.chain_count(); ++c) {
    const auto workspace = model.make_workspace();
    const auto& chain = run.chain(c);
    for (std::size_t s = 0; s < chain.sample_count(); ++s) {
      for (std::size_t p = 0; p < state.size(); ++p) {
        state[p] = chain.parameter(p)[s];
      }
      scorer.accumulate(c, state, workspace.get());
    }
  }
}

void expect_matches_trace(const BayesianSrm& model, const McmcRun& run,
                          const ObservationResult& result,
                          const std::string& label) {
  const auto gibbs = small_gibbs();
  ASSERT_EQ(run.total_samples(), gibbs.chain_count * gibbs.iterations)
      << label;

  // WAIC, all fields, against a scorer fed the recorded draws afterwards.
  srm::core::StreamingScorer rescored(model, gibbs.chain_count,
                                      gibbs.iterations);
  score_recorded(model, run, rescored);
  const auto waic = rescored.waic();
  EXPECT_EQ(result.waic.waic, waic.waic) << label;
  EXPECT_EQ(result.waic.waic_per_point, waic.waic_per_point) << label;
  EXPECT_EQ(result.waic.learning_loss, waic.learning_loss) << label;
  EXPECT_EQ(result.waic.functional_variance, waic.functional_variance)
      << label;
  EXPECT_EQ(result.waic.samples, waic.samples) << label;

  // Residual posterior: summary, box plot, and the raw pooled draws.
  const auto reference = srm::core::summarize_residual_posterior(run);
  const auto& streamed = result.posterior;
  EXPECT_EQ(streamed.summary.mean, reference.summary.mean) << label;
  EXPECT_EQ(streamed.summary.sd, reference.summary.sd) << label;
  EXPECT_EQ(streamed.summary.median, reference.summary.median) << label;
  EXPECT_EQ(streamed.summary.mode, reference.summary.mode) << label;
  EXPECT_EQ(streamed.summary.min, reference.summary.min) << label;
  EXPECT_EQ(streamed.summary.max, reference.summary.max) << label;
  EXPECT_EQ(streamed.box.median, reference.box.median) << label;
  EXPECT_EQ(streamed.box.q1, reference.box.q1) << label;
  EXPECT_EQ(streamed.box.q3, reference.box.q3) << label;
  EXPECT_EQ(streamed.samples, reference.samples) << label;

  // Per-parameter diagnostics.
  const auto& names = run.parameter_names();
  ASSERT_EQ(result.diagnostics.size(), names.size()) << label;
  for (std::size_t p = 0; p < names.size(); ++p) {
    const auto& diag = result.diagnostics[p];
    EXPECT_EQ(diag.name, names[p]) << label;
    EXPECT_EQ(diag.psrf, srm::diagnostics::gelman_rubin(run, p).psrf)
        << label << " " << diag.name;
    EXPECT_EQ(diag.geweke_z,
              srm::diagnostics::geweke(run.chain(0).parameter(p)).z)
        << label << " " << diag.name;
    const double pooled_mean = srm::stats::mean(run.pooled(p));
    EXPECT_NEAR(diag.posterior_mean, pooled_mean,
                1e-12 * std::abs(pooled_mean) + 1e-15)
        << label << " " << diag.name;
    EXPECT_GE(diag.ess, 1.0) << label << " " << diag.name;
    EXPECT_LE(diag.ess, static_cast<double>(run.total_samples()))
        << label << " " << diag.name;
  }
}

TEST(StreamingPipeline, BitIdenticalToStoredTracesAcrossAll28Configs) {
  const auto data = srm::data::sys1_grouped();
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      for (const auto kind : srm::core::all_detection_model_kinds()) {
        const std::string label =
            srm::core::to_string(scheme) + "/" +
            srm::core::to_string(prior) + "/" + srm::core::to_string(kind);
        srm::core::FitRequest request;
        request.prior = prior;
        request.model = kind;
        request.config.scheme = scheme;
        request.gibbs = small_gibbs();
        request.observation_day = data.days();
        request.eventual_total = srm::data::kSys1TotalBugs;

        // fit_cell builds this same model from the same inputs.
        const BayesianSrm model(prior, kind, data, request.config);
        McmcRun run(model.parameter_names(), request.gibbs.chain_count,
                    request.gibbs.iterations);
        srm::mcmc::PosteriorAccumulator* const recorder = &run;
        const auto result =
            srm::core::fit_cell(data, request, std::span(&recorder, 1));
        expect_matches_trace(model, run, result, label);
      }
    }
  }
}

TEST(StreamingPipeline, ScorerMatrixReproducesPsisLooBitwise) {
  const auto data = srm::data::sys1_grouped();
  for (const auto scheme :
       {SamplerScheme::kCollapsed, SamplerScheme::kVanilla}) {
    for (const auto prior :
         {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
      srm::core::HyperPriorConfig config;
      config.scheme = scheme;
      const BayesianSrm model(prior, DetectionModelKind::kWeibull, data,
                              config);
      const auto gibbs = small_gibbs();

      srm::core::StreamingScorer scorer(model, gibbs.chain_count,
                                        gibbs.iterations,
                                        /*keep_matrix=*/true);
      McmcRun run(model.parameter_names(), gibbs.chain_count,
                  gibbs.iterations);
      const std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&scorer,
                                                                  &run};
      srm::mcmc::run_gibbs(model, gibbs, sinks);
      const auto streamed = srm::core::compute_psis_loo_from_matrix(
          scorer.log_likelihood_matrix());

      srm::core::StreamingScorer rescored(model, gibbs.chain_count,
                                          gibbs.iterations,
                                          /*keep_matrix=*/true);
      score_recorded(model, run, rescored);
      const auto stored = srm::core::compute_psis_loo_from_matrix(
          rescored.log_likelihood_matrix());

      EXPECT_EQ(stored.elpd_loo, streamed.elpd_loo);
      EXPECT_EQ(stored.looic, streamed.looic);
      EXPECT_EQ(stored.high_k_count, streamed.high_k_count);
      ASSERT_EQ(stored.pointwise.size(), streamed.pointwise.size());
      for (std::size_t i = 0; i < stored.pointwise.size(); ++i) {
        EXPECT_EQ(stored.pointwise[i].elpd, streamed.pointwise[i].elpd);
        EXPECT_EQ(stored.pointwise[i].pareto_k,
                  streamed.pointwise[i].pareto_k);
      }
    }
  }
}

TEST(StreamingPipeline, AccumulatorReproducesLegacyTraceDiagnostics) {
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  const auto gibbs = small_gibbs();

  srm::diagnostics::ParameterStatsAccumulator stats(
      model.state_size(), gibbs.chain_count, gibbs.iterations);
  srm::core::ResidualAccumulator residual(model.residual_index(),
                                          gibbs.chain_count,
                                          gibbs.iterations);
  McmcRun run(model.parameter_names(), gibbs.chain_count, gibbs.iterations);
  const std::array<srm::mcmc::PosteriorAccumulator*, 3> sinks{
      &stats, &residual, &run};
  srm::mcmc::run_gibbs(model, gibbs, sinks);

  for (std::size_t p = 0; p < model.state_size(); ++p) {
    const auto online = stats.parameter(p);
    // PSRF replicates the gelman_rubin() arithmetic statement for
    // statement — bitwise.
    EXPECT_EQ(online.psrf, srm::diagnostics::gelman_rubin(run, p).psrf);
    // Geweke finalizes through the same window statistic the trace path
    // calls — bitwise.
    EXPECT_EQ(online.geweke_z,
              srm::diagnostics::geweke(run.chain(0).parameter(p)).z);
    // Pooled mean: per-chain plain sums merged in chain order vs one pass
    // over the concatenation — equal up to association.
    const auto pooled = run.pooled(p);
    EXPECT_NEAR(online.posterior_mean, srm::stats::mean(pooled),
                1e-12 * std::abs(srm::stats::mean(pooled)) + 1e-15);
    // ESS: a truncated Geyer window can only shrink the autocorrelation
    // time, so the streamed estimate is bounded by [legacy, N].
    EXPECT_GE(online.ess, 1.0);
    EXPECT_LE(online.ess, static_cast<double>(run.total_samples()));
  }

  // The residual accumulator funnels through summarize_residual_samples on
  // the same chain-ordered pooled draws — bitwise.
  const auto stored = srm::core::summarize_residual_posterior(run);
  const auto streamed = residual.finalize();
  EXPECT_EQ(stored.summary.mean, streamed.summary.mean);
  EXPECT_EQ(stored.summary.sd, streamed.summary.sd);
  EXPECT_EQ(stored.samples, streamed.samples);
}

TEST(StreamingPipeline, SingleChainEssMatchesLegacyInsideLagWindow) {
  // With one chain and draws_per_chain - 1 <= kMaxEssLag the streamed
  // estimator sees every lag the legacy scan sees; the remaining delta is
  // the shifted-vs-centered accumulation order, so compare tightly.
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  auto gibbs = small_gibbs();
  gibbs.chain_count = 1;
  gibbs.iterations = 120;

  srm::diagnostics::ParameterStatsAccumulator stats(model.state_size(), 1,
                                                    gibbs.iterations);
  McmcRun run(model.parameter_names(), 1, gibbs.iterations);
  const std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&stats, &run};
  srm::mcmc::run_gibbs(model, gibbs, sinks);
  for (std::size_t p = 0; p < model.state_size(); ++p) {
    const double legacy =
        srm::diagnostics::effective_sample_size(run.chain(0).parameter(p));
    const double streamed = stats.parameter(p).ess;
    EXPECT_NEAR(streamed, legacy, 1e-6 * legacy) << run.parameter_names()[p];
  }
}

TEST(StreamingPipeline, RecordedRunMatchesTheRecordingOverload) {
  // run_gibbs(model, options) is the sink overload with an McmcRun as its
  // only sink: attaching one next to other sinks records the same draws.
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kConstant,
                          data, {});
  const auto gibbs = small_gibbs();
  const auto recorded = srm::mcmc::run_gibbs(model, gibbs);

  srm::core::ResidualAccumulator residual(model.residual_index(),
                                          gibbs.chain_count,
                                          gibbs.iterations);
  McmcRun run(model.parameter_names(), gibbs.chain_count, gibbs.iterations);
  const std::array<srm::mcmc::PosteriorAccumulator*, 2> sinks{&residual,
                                                              &run};
  srm::mcmc::run_gibbs(model, gibbs, sinks);
  ASSERT_EQ(run.chain_count(), recorded.chain_count());
  for (std::size_t p = 0; p < model.state_size(); ++p) {
    EXPECT_EQ(run.pooled(p), recorded.pooled(p)) << run.parameter_names()[p];
  }
}

}  // namespace
