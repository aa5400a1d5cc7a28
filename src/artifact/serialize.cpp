#include "artifact/serialize.hpp"

#include <cstdint>
#include <string>
#include <string_view>

#include "artifact/cell_store.hpp"
#include "support/error.hpp"

namespace srm::artifact {

namespace {

std::size_t size_at(const Json& json, std::string_view key) {
  return static_cast<std::size_t>(json.at(key).as_unsigned());
}

core::PriorKind prior_at(const Json& json, std::string_view key) {
  const auto& name = json.at(key).as_string();
  const auto prior = core::prior_kind_from_string(name);
  if (!prior) {
    throw InvalidArgument("unknown prior kind: " + name + " (use " +
                          core::family_ids_joined() + ")");
  }
  return *prior;
}

core::DetectionModelKind model_at(const Json& json, std::string_view key) {
  const auto& name = json.at(key).as_string();
  const auto model = core::detection_model_from_string(name);
  if (!model) throw InvalidArgument("unknown detection model: " + name);
  return *model;
}

Json days_to_json(const std::vector<std::size_t>& days) {
  Json::Array array;
  array.reserve(days.size());
  for (const auto day : days) array.push_back(Json::from_unsigned(day));
  return array;
}

std::vector<std::size_t> days_from_json(const Json& json) {
  std::vector<std::size_t> days;
  days.reserve(json.as_array().size());
  for (const auto& day : json.as_array()) {
    days.push_back(static_cast<std::size_t>(day.as_unsigned()));
  }
  return days;
}

}  // namespace

Json to_json(const mcmc::GibbsOptions& gibbs) {
  Json json = Json::Object{};
  json.set("chain_count", Json::from_unsigned(gibbs.chain_count));
  json.set("burn_in", Json::from_unsigned(gibbs.burn_in));
  json.set("iterations", Json::from_unsigned(gibbs.iterations));
  json.set("thin", Json::from_unsigned(gibbs.thin));
  // The seed is a full-range uint64; it is stored as the bit-equivalent
  // int64 and round-tripped with the matching cast below.
  json.set("seed", static_cast<std::int64_t>(gibbs.seed));
  json.set("parallel_chains", gibbs.parallel_chains);
  return json;
}

mcmc::GibbsOptions gibbs_options_from_json(const Json& json) {
  mcmc::GibbsOptions gibbs;
  gibbs.chain_count = size_at(json, "chain_count");
  gibbs.burn_in = size_at(json, "burn_in");
  gibbs.iterations = size_at(json, "iterations");
  gibbs.thin = size_at(json, "thin");
  gibbs.seed = static_cast<std::uint64_t>(json.at("seed").as_int());
  gibbs.parallel_chains = json.at("parallel_chains").as_bool();
  // Specs written before every draw was streamed also carry a
  // trace-retention member; it never changed a result, so it is ignored.
  // Specs written by the removed SIMD sampler forks, by contrast, carry one
  // of these members. Their draws never came from the scalar scan, so
  // loading them as default-path specs would misdescribe the stored results.
  for (const std::string_view fork : {"vectorized", "chain_lanes"}) {
    if (json.find(fork) != nullptr) {
      throw InvalidArgument("gibbs member \"" + std::string(fork) +
                            "\" names a removed sampler fork");
    }
  }
  return gibbs;
}

Json to_json(const core::HyperPriorConfig& config) {
  Json json = Json::Object{};
  json.set("lambda_max", config.lambda_max);
  json.set("alpha_max", config.alpha_max);
  json.set("theta_max", config.limits.theta_max);
  json.set("gamma_bound", config.limits.gamma_bound);
  // Omit-if-default so every artifact written before the size-biased family
  // existed keeps its exact bytes (spec hashes cover these bytes).
  const core::DetectionModelLimits default_limits{};
  if (config.limits.sb_shape_max != default_limits.sb_shape_max) {
    json.set("sb_shape_max", config.limits.sb_shape_max);
  }
  if (config.limits.sb_scale_max != default_limits.sb_scale_max) {
    json.set("sb_scale_max", config.limits.sb_scale_max);
  }
  json.set("jeffreys_lambda0", config.jeffreys_lambda0);
  json.set("scheme", core::to_string(config.scheme));
  return json;
}

core::HyperPriorConfig hyper_prior_config_from_json(const Json& json) {
  core::HyperPriorConfig config;
  config.lambda_max = json.at("lambda_max").as_double();
  config.alpha_max = json.at("alpha_max").as_double();
  config.limits.theta_max = json.at("theta_max").as_double();
  config.limits.gamma_bound = json.at("gamma_bound").as_double();
  // Optional for backward compatibility: pre-size-biased artifacts lack
  // the keys.
  if (const Json* shape_max = json.find("sb_shape_max")) {
    config.limits.sb_shape_max = shape_max->as_double();
  }
  if (const Json* scale_max = json.find("sb_scale_max")) {
    config.limits.sb_scale_max = scale_max->as_double();
  }
  config.jeffreys_lambda0 = json.at("jeffreys_lambda0").as_bool();
  const auto& scheme_name = json.at("scheme").as_string();
  const auto scheme = core::sampler_scheme_from_string(scheme_name);
  if (!scheme) throw InvalidArgument("unknown sampler scheme: " + scheme_name);
  config.scheme = *scheme;
  return config;
}

Json to_json(const report::SweepOptions& options) {
  Json json = Json::Object{};
  json.set("observation_days", days_to_json(options.observation_days));
  json.set("eventual_total", options.eventual_total);
  json.set("gibbs", to_json(options.gibbs));
  json.set("base_config", to_json(options.base_config));
  Json::Array overrides;
  for (const auto& o : options.overrides()) {
    Json entry = Json::Object{};
    entry.set("prior", core::to_string(o.prior));
    entry.set("model", core::to_string(o.model));
    entry.set("config", to_json(o.config));
    overrides.push_back(std::move(entry));
  }
  json.set("overrides", std::move(overrides));
  return json;
}

report::SweepOptions sweep_options_from_json(const Json& json) {
  report::SweepOptions options;
  options.observation_days = days_from_json(json.at("observation_days"));
  options.eventual_total = json.at("eventual_total").as_int();
  options.gibbs = gibbs_options_from_json(json.at("gibbs"));
  options.base_config = hyper_prior_config_from_json(json.at("base_config"));
  // Sweeps always lay out the reproduction families. Options naming another
  // grid were written when the grid was configurable; the sweep hash never
  // covered it, so loading them would misdescribe their cells.
  if (json.find("families") != nullptr) {
    throw InvalidArgument(
        "sweep options member \"families\" names a removed grid setting");
  }
  for (const auto& entry : json.at("overrides").as_array()) {
    options.set_override(prior_at(entry, "prior"), model_at(entry, "model"),
                         hyper_prior_config_from_json(entry.at("config")));
  }
  return options;
}

Json to_json(const core::WaicResult& waic) {
  Json json = Json::Object{};
  json.set("waic", waic.waic);
  json.set("waic_per_point", waic.waic_per_point);
  json.set("learning_loss", waic.learning_loss);
  json.set("functional_variance", waic.functional_variance);
  json.set("data_points", Json::from_unsigned(waic.data_points));
  json.set("samples", Json::from_unsigned(waic.samples));
  return json;
}

core::WaicResult waic_result_from_json(const Json& json) {
  core::WaicResult waic;
  waic.waic = json.at("waic").as_double();
  waic.waic_per_point = json.at("waic_per_point").as_double();
  waic.learning_loss = json.at("learning_loss").as_double();
  waic.functional_variance = json.at("functional_variance").as_double();
  waic.data_points = size_at(json, "data_points");
  waic.samples = size_at(json, "samples");
  return waic;
}

Json to_json(const core::ParameterDiagnostics& diagnostics) {
  Json json = Json::Object{};
  json.set("name", diagnostics.name);
  json.set("psrf", diagnostics.psrf);
  json.set("geweke_z", diagnostics.geweke_z);
  json.set("ess", diagnostics.ess);
  json.set("posterior_mean", diagnostics.posterior_mean);
  return json;
}

core::ParameterDiagnostics parameter_diagnostics_from_json(const Json& json) {
  core::ParameterDiagnostics diagnostics;
  diagnostics.name = json.at("name").as_string();
  diagnostics.psrf = json.at("psrf").as_double();
  diagnostics.geweke_z = json.at("geweke_z").as_double();
  diagnostics.ess = json.at("ess").as_double();
  diagnostics.posterior_mean = json.at("posterior_mean").as_double();
  return diagnostics;
}

Json to_json(const core::ResidualPosterior& posterior) {
  Json summary = Json::Object{};
  summary.set("mean", posterior.summary.mean);
  summary.set("sd", posterior.summary.sd);
  summary.set("median", posterior.summary.median);
  summary.set("mode", posterior.summary.mode);
  summary.set("min", posterior.summary.min);
  summary.set("max", posterior.summary.max);
  summary.set("count", Json::from_unsigned(posterior.summary.count));

  Json box = Json::Object{};
  box.set("whisker_low", posterior.box.whisker_low);
  box.set("q1", posterior.box.q1);
  box.set("median", posterior.box.median);
  box.set("q3", posterior.box.q3);
  box.set("whisker_high", posterior.box.whisker_high);

  Json::Array samples;
  samples.reserve(posterior.samples.size());
  for (const auto draw : posterior.samples) samples.push_back(draw);

  Json json = Json::Object{};
  json.set("summary", std::move(summary));
  json.set("box", std::move(box));
  json.set("samples", std::move(samples));
  return json;
}

core::ResidualPosterior residual_posterior_from_json(const Json& json) {
  core::ResidualPosterior posterior;
  const Json& summary = json.at("summary");
  posterior.summary.mean = summary.at("mean").as_double();
  posterior.summary.sd = summary.at("sd").as_double();
  posterior.summary.median = summary.at("median").as_int();
  posterior.summary.mode = summary.at("mode").as_int();
  posterior.summary.min = summary.at("min").as_int();
  posterior.summary.max = summary.at("max").as_int();
  posterior.summary.count = size_at(summary, "count");
  const Json& box = json.at("box");
  posterior.box.whisker_low = box.at("whisker_low").as_double();
  posterior.box.q1 = box.at("q1").as_double();
  posterior.box.median = box.at("median").as_double();
  posterior.box.q3 = box.at("q3").as_double();
  posterior.box.whisker_high = box.at("whisker_high").as_double();
  const auto& samples = json.at("samples").as_array();
  posterior.samples.reserve(samples.size());
  for (const auto& draw : samples) posterior.samples.push_back(draw.as_int());
  return posterior;
}

Json to_json(const core::ObservationResult& result) {
  Json json = Json::Object{};
  json.set("observation_day", Json::from_unsigned(result.observation_day));
  json.set("detected_so_far", result.detected_so_far);
  json.set("actual_residual", result.actual_residual);
  json.set("waic", to_json(result.waic));
  json.set("posterior", to_json(result.posterior));
  Json::Array diagnostics;
  diagnostics.reserve(result.diagnostics.size());
  for (const auto& diag : result.diagnostics) {
    diagnostics.push_back(to_json(diag));
  }
  json.set("diagnostics", std::move(diagnostics));
  return json;
}

core::ObservationResult observation_result_from_json(const Json& json) {
  core::ObservationResult result;
  result.observation_day = size_at(json, "observation_day");
  result.detected_so_far = json.at("detected_so_far").as_int();
  result.actual_residual = json.at("actual_residual").as_int();
  result.waic = waic_result_from_json(json.at("waic"));
  result.posterior = residual_posterior_from_json(json.at("posterior"));
  for (const auto& diag : json.at("diagnostics").as_array()) {
    result.diagnostics.push_back(parameter_diagnostics_from_json(diag));
  }
  return result;
}

Json to_json(const report::SweepCell& cell) {
  Json json = Json::Object{};
  json.set("prior", core::to_string(cell.prior));
  json.set("model", core::to_string(cell.model));
  json.set("config", to_json(cell.config));
  Json::Array results;
  results.reserve(cell.results.size());
  for (const auto& result : cell.results) results.push_back(to_json(result));
  json.set("results", std::move(results));
  return json;
}

report::SweepCell sweep_cell_from_json(const Json& json) {
  report::SweepCell cell;
  cell.prior = prior_at(json, "prior");
  cell.model = model_at(json, "model");
  cell.config = hyper_prior_config_from_json(json.at("config"));
  for (const auto& result : json.at("results").as_array()) {
    cell.results.push_back(observation_result_from_json(result));
  }
  return cell;
}

Json to_json(const report::SweepResult& sweep) {
  Json json = Json::Object{};
  json.set("observation_days", days_to_json(sweep.observation_days));
  Json::Array cells;
  cells.reserve(sweep.cells.size());
  for (const auto& cell : sweep.cells) cells.push_back(to_json(cell));
  json.set("cells", std::move(cells));
  return json;
}

report::SweepResult sweep_result_from_json(const Json& json) {
  report::SweepResult sweep;
  sweep.observation_days = days_from_json(json.at("observation_days"));
  for (const auto& cell : json.at("cells").as_array()) {
    sweep.cells.push_back(sweep_cell_from_json(cell));
  }
  return sweep;
}

Json cell_envelope(const std::string& hash, core::PriorKind prior,
                   core::DetectionModelKind model, std::size_t observation_day,
                   const core::ObservationResult& result) {
  Json cell = Json::Object{};
  cell.set("schema_version", kSchemaVersion);
  cell.set("hash", hash);
  cell.set("prior", core::to_string(prior));
  cell.set("model", core::to_string(model));
  cell.set("observation_day", Json::from_unsigned(observation_day));
  cell.set("result", to_json(result));
  return cell;
}

}  // namespace srm::artifact
