// Round-trip property tests for the artifact serializers: every result and
// spec type must survive to_json -> dump -> parse -> from_json with every
// field bit-identical, including hostile doubles (subnormals, -0.0, the
// extremes of the exponent range).
#include "artifact/serialize.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "random/rng.hpp"
#include "support/error.hpp"

namespace {

using srm::artifact::Json;
namespace artifact = srm::artifact;
namespace core = srm::core;
namespace mcmc = srm::mcmc;
namespace report = srm::report;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A finite double with an arbitrary bit pattern (subnormals included).
double random_double(srm::random::Rng& rng) {
  for (;;) {
    const auto bits = rng.next_u64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isfinite(value)) return value;
  }
}

core::ObservationResult random_observation(srm::random::Rng& rng,
                                           std::size_t day) {
  core::ObservationResult result;
  result.observation_day = day;
  result.detected_so_far = static_cast<std::int64_t>(rng.uniform_index(500));
  result.actual_residual = static_cast<std::int64_t>(rng.uniform_index(200));
  result.waic.waic = random_double(rng);
  result.waic.waic_per_point = random_double(rng);
  result.waic.learning_loss = random_double(rng);
  result.waic.functional_variance = random_double(rng);
  result.waic.data_points = day;
  result.waic.samples = 100 + rng.uniform_index(100);
  result.posterior.summary.mean = random_double(rng);
  result.posterior.summary.sd = random_double(rng);
  result.posterior.summary.median =
      static_cast<std::int64_t>(rng.uniform_index(100));
  result.posterior.summary.mode =
      static_cast<std::int64_t>(rng.uniform_index(100));
  result.posterior.summary.min = -5;
  result.posterior.summary.max = 1000;
  result.posterior.summary.count = 50;
  result.posterior.box.whisker_low = random_double(rng);
  result.posterior.box.q1 = random_double(rng);
  result.posterior.box.median = random_double(rng);
  result.posterior.box.q3 = random_double(rng);
  result.posterior.box.whisker_high = random_double(rng);
  for (int i = 0; i < 20; ++i) {
    result.posterior.samples.push_back(
        static_cast<std::int64_t>(rng.uniform_index(300)));
  }
  for (const char* name : {"residual", "lambda0", "mu"}) {
    core::ParameterDiagnostics diag;
    diag.name = name;
    diag.psrf = random_double(rng);
    diag.geweke_z = random_double(rng);
    diag.ess = random_double(rng);
    diag.posterior_mean = random_double(rng);
    result.diagnostics.push_back(std::move(diag));
  }
  return result;
}

report::SweepResult random_sweep(srm::random::Rng& rng) {
  report::SweepResult sweep;
  sweep.observation_days = {5, 8};
  for (const auto prior :
       {core::PriorKind::kPoisson, core::PriorKind::kNegativeBinomial}) {
    for (const auto model : core::all_detection_model_kinds()) {
      report::SweepCell cell;
      cell.prior = prior;
      cell.model = model;
      cell.config.lambda_max = random_double(rng);
      cell.config.alpha_max = random_double(rng);
      for (const auto day : sweep.observation_days) {
        cell.results.push_back(random_observation(rng, day));
      }
      sweep.cells.push_back(std::move(cell));
    }
  }
  return sweep;
}

void expect_waic_equal(const core::WaicResult& a, const core::WaicResult& b) {
  EXPECT_TRUE(bits_equal(a.waic, b.waic));
  EXPECT_TRUE(bits_equal(a.waic_per_point, b.waic_per_point));
  EXPECT_TRUE(bits_equal(a.learning_loss, b.learning_loss));
  EXPECT_TRUE(bits_equal(a.functional_variance, b.functional_variance));
  EXPECT_EQ(a.data_points, b.data_points);
  EXPECT_EQ(a.samples, b.samples);
}

void expect_observation_equal(const core::ObservationResult& a,
                              const core::ObservationResult& b) {
  EXPECT_EQ(a.observation_day, b.observation_day);
  EXPECT_EQ(a.detected_so_far, b.detected_so_far);
  EXPECT_EQ(a.actual_residual, b.actual_residual);
  expect_waic_equal(a.waic, b.waic);
  EXPECT_TRUE(bits_equal(a.posterior.summary.mean, b.posterior.summary.mean));
  EXPECT_TRUE(bits_equal(a.posterior.summary.sd, b.posterior.summary.sd));
  EXPECT_EQ(a.posterior.summary.median, b.posterior.summary.median);
  EXPECT_EQ(a.posterior.summary.mode, b.posterior.summary.mode);
  EXPECT_EQ(a.posterior.summary.min, b.posterior.summary.min);
  EXPECT_EQ(a.posterior.summary.max, b.posterior.summary.max);
  EXPECT_EQ(a.posterior.summary.count, b.posterior.summary.count);
  EXPECT_TRUE(bits_equal(a.posterior.box.whisker_low,
                         b.posterior.box.whisker_low));
  EXPECT_TRUE(bits_equal(a.posterior.box.q1, b.posterior.box.q1));
  EXPECT_TRUE(bits_equal(a.posterior.box.median, b.posterior.box.median));
  EXPECT_TRUE(bits_equal(a.posterior.box.q3, b.posterior.box.q3));
  EXPECT_TRUE(bits_equal(a.posterior.box.whisker_high,
                         b.posterior.box.whisker_high));
  EXPECT_EQ(a.posterior.samples, b.posterior.samples);
  ASSERT_EQ(a.diagnostics.size(), b.diagnostics.size());
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    EXPECT_EQ(a.diagnostics[i].name, b.diagnostics[i].name);
    EXPECT_TRUE(bits_equal(a.diagnostics[i].psrf, b.diagnostics[i].psrf));
    EXPECT_TRUE(
        bits_equal(a.diagnostics[i].geweke_z, b.diagnostics[i].geweke_z));
    EXPECT_TRUE(bits_equal(a.diagnostics[i].ess, b.diagnostics[i].ess));
    EXPECT_TRUE(bits_equal(a.diagnostics[i].posterior_mean,
                           b.diagnostics[i].posterior_mean));
  }
}

TEST(ArtifactSerialize, RandomSweepResultsRoundTripBitExactly) {
  srm::random::Rng rng(20260806);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sweep = random_sweep(rng);
    const std::string pretty = artifact::to_json(sweep).dump(2);
    const auto back =
        artifact::sweep_result_from_json(Json::parse(pretty));
    EXPECT_EQ(back.observation_days, sweep.observation_days);
    ASSERT_EQ(back.cells.size(), sweep.cells.size());
    for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
      EXPECT_EQ(back.cells[c].prior, sweep.cells[c].prior);
      EXPECT_EQ(back.cells[c].model, sweep.cells[c].model);
      ASSERT_EQ(back.cells[c].results.size(), sweep.cells[c].results.size());
      for (std::size_t d = 0; d < sweep.cells[c].results.size(); ++d) {
        expect_observation_equal(back.cells[c].results[d],
                                 sweep.cells[c].results[d]);
      }
    }
    // Determinism: serializing the reconstruction reproduces the bytes.
    EXPECT_EQ(artifact::to_json(back).dump(2), pretty);
  }
}

TEST(ArtifactSerialize, NonFiniteDiagnosticsSurvive) {
  core::ParameterDiagnostics diag;
  diag.name = "lambda0";
  diag.psrf = std::numeric_limits<double>::quiet_NaN();
  diag.geweke_z = std::numeric_limits<double>::infinity();
  diag.ess = -std::numeric_limits<double>::infinity();
  diag.posterior_mean = -0.0;
  const auto back = artifact::parameter_diagnostics_from_json(
      Json::parse(artifact::to_json(diag).dump()));
  EXPECT_TRUE(std::isnan(back.psrf));
  EXPECT_TRUE(std::isinf(back.geweke_z));
  EXPECT_TRUE(bits_equal(back.ess, diag.ess));
  EXPECT_TRUE(bits_equal(back.posterior_mean, -0.0));
}

TEST(ArtifactSerialize, GibbsOptionsRoundTripIncludingFullRangeSeed) {
  mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 3;
  gibbs.burn_in = 111;
  gibbs.iterations = 2222;
  gibbs.thin = 5;
  gibbs.parallel_chains = false;
  gibbs.keep_traces = true;
  for (const auto seed :
       {std::uint64_t{0}, std::uint64_t{20240624},
        std::numeric_limits<std::uint64_t>::max()}) {
    gibbs.seed = seed;
    const auto back = artifact::gibbs_options_from_json(
        Json::parse(artifact::to_json(gibbs).dump()));
    EXPECT_EQ(back.chain_count, gibbs.chain_count);
    EXPECT_EQ(back.burn_in, gibbs.burn_in);
    EXPECT_EQ(back.iterations, gibbs.iterations);
    EXPECT_EQ(back.thin, gibbs.thin);
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.parallel_chains, gibbs.parallel_chains);
    EXPECT_EQ(back.keep_traces, gibbs.keep_traces);
  }
}

TEST(ArtifactSerialize, GibbsMembersOfRemovedForksFailLoudly) {
  // Specs written by the removed SIMD sampler forks carry one of these
  // members; whatever its value, loading one as a default-path spec would
  // misdescribe the stored draws, so the loader names the member and
  // throws.
  for (const char* member : {"vectorized", "chain_lanes"}) {
    for (const bool value : {true, false}) {
      Json json = artifact::to_json(mcmc::GibbsOptions{});
      EXPECT_EQ(json.find(member), nullptr) << member;
      json.set(member, value);
      try {
        (void)artifact::gibbs_options_from_json(Json::parse(json.dump()));
        ADD_FAILURE() << member << "=" << value << " loaded";
      } catch (const srm::InvalidArgument& error) {
        EXPECT_NE(std::string(error.what()).find(member), std::string::npos)
            << error.what();
      }
    }
  }
}

TEST(ArtifactSerialize, SweepOptionsRoundTripWithOverrides) {
  report::SweepOptions options;
  options.observation_days = {48, 67, 86};
  options.eventual_total = 136;
  options.gibbs.seed = 7;
  options.base_config.lambda_max = 1500.0;
  core::HyperPriorConfig special;
  special.alpha_max = 42.5;
  special.scheme = core::SamplerScheme::kVanilla;
  special.jeffreys_lambda0 = true;
  options.set_override(core::PriorKind::kNegativeBinomial,
                       core::DetectionModelKind::kWeibull, special);

  const auto back = artifact::sweep_options_from_json(
      Json::parse(artifact::to_json(options).dump()));
  EXPECT_EQ(back.observation_days, options.observation_days);
  EXPECT_EQ(back.eventual_total, options.eventual_total);
  EXPECT_EQ(back.gibbs.seed, 7u);
  EXPECT_TRUE(bits_equal(back.base_config.lambda_max, 1500.0));
  ASSERT_EQ(back.overrides().size(), 1u);
  const auto round_tripped =
      back.config_for(core::PriorKind::kNegativeBinomial,
                      core::DetectionModelKind::kWeibull);
  EXPECT_TRUE(bits_equal(round_tripped.alpha_max, 42.5));
  EXPECT_EQ(round_tripped.scheme, core::SamplerScheme::kVanilla);
  EXPECT_TRUE(round_tripped.jeffreys_lambda0);
}

TEST(ArtifactSerialize, ExperimentSpecRoundTrip) {
  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kNegativeBinomial;
  spec.model = core::DetectionModelKind::kLearningCurve;
  spec.config.scheme = core::SamplerScheme::kVanilla;
  spec.gibbs.seed = 12345;
  spec.observation_days = {10, 20};
  spec.eventual_total = 99;
  const auto back = artifact::experiment_spec_from_json(
      Json::parse(artifact::to_json(spec).dump()));
  EXPECT_EQ(back.prior, spec.prior);
  EXPECT_EQ(back.model, spec.model);
  EXPECT_EQ(back.config.scheme, spec.config.scheme);
  EXPECT_EQ(back.gibbs.seed, 12345u);
  EXPECT_EQ(back.observation_days, spec.observation_days);
  EXPECT_EQ(back.eventual_total, 99);
}

TEST(ArtifactSerialize, UnknownNamesThrow) {
  Json bad = Json::Object{};
  bad.set("prior", "weibull");
  bad.set("model", "model1");
  bad.set("config", artifact::to_json(core::HyperPriorConfig{}));
  bad.set("results", Json::Array{});
  EXPECT_THROW(artifact::sweep_cell_from_json(bad), srm::InvalidArgument);
  bad.set("prior", "poisson");
  bad.set("model", "model99");
  EXPECT_THROW(artifact::sweep_cell_from_json(bad), srm::InvalidArgument);
}

}  // namespace
