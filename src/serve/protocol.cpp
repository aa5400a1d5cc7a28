#include "serve/protocol.hpp"

#include <utility>
#include <vector>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "core/model_family.hpp"
#include "data/datasets.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::serve {

namespace {

using support::Json;

/// Rejects members outside `allowed` — the strict-schema guarantee that a
/// typo like "iteratons" errors instead of silently using a default.
void reject_unknown_members(const Json& object, const char* where,
                            const std::vector<std::string_view>& allowed) {
  for (const auto& [key, value] : object.as_object()) {
    bool known = false;
    for (const auto candidate : allowed) known = known || key == candidate;
    if (!known) {
      throw InvalidArgument("unknown member \"" + key + "\" in " + where);
    }
  }
}

std::size_t member_size(const Json& object, std::string_view key,
                        std::size_t fallback) {
  const Json* value = object.find(key);
  if (value == nullptr) return fallback;
  return static_cast<std::size_t>(value->as_unsigned());
}

double member_double(const Json& object, std::string_view key,
                     double fallback) {
  const Json* value = object.find(key);
  return value == nullptr ? fallback : value->as_double();
}

Op op_from_string(const std::string& name) {
  if (name == "fit") return Op::kFit;
  if (name == "predict") return Op::kPredict;
  if (name == "release") return Op::kRelease;
  if (name == "select") return Op::kSelect;
  if (name == "stats") return Op::kStats;
  if (name == "shutdown") return Op::kShutdown;
  throw InvalidArgument("unknown op \"" + name +
                        "\" (use fit|predict|release|select|stats|shutdown)");
}

data::BugCountData parse_project(const Json& value) {
  if (value.is_string()) {
    const auto& name = value.as_string();
    if (name == "sys1") return data::sys1_grouped();
    if (name == "ntds") return data::ntds_grouped();
    throw InvalidArgument("unknown project \"" + name +
                          "\" (use sys1, ntds, or {\"name\", \"counts\"})");
  }
  if (value.is_object()) {
    reject_unknown_members(value, "project", {"name", "counts"});
    const auto& name = value.at("name").as_string();
    std::vector<std::int64_t> counts;
    for (const auto& entry : value.at("counts").as_array()) {
      counts.push_back(entry.as_int());
    }
    return data::BugCountData(name, std::move(counts));
  }
  throw InvalidArgument(
      "project must be a name string or a {\"name\", \"counts\"} object");
}

mcmc::GibbsOptions parse_gibbs(const Json* value) {
  mcmc::GibbsOptions gibbs;
  if (value == nullptr) return gibbs;
  reject_unknown_members(*value, "gibbs",
                         {"chains", "burn_in", "iterations", "thin", "seed"});
  gibbs.chain_count = member_size(*value, "chains", gibbs.chain_count);
  gibbs.burn_in = member_size(*value, "burn_in", gibbs.burn_in);
  gibbs.iterations = member_size(*value, "iterations", gibbs.iterations);
  gibbs.thin = member_size(*value, "thin", gibbs.thin);
  if (const Json* seed = value->find("seed"); seed != nullptr) {
    gibbs.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  SRM_EXPECTS(gibbs.chain_count >= 1, "gibbs.chains must be >= 1");
  SRM_EXPECTS(gibbs.iterations >= 1, "gibbs.iterations must be >= 1");
  SRM_EXPECTS(gibbs.thin >= 1, "gibbs.thin must be >= 1");
  return gibbs;
}

core::HyperPriorConfig parse_config(const Json* value) {
  core::HyperPriorConfig config;
  if (value == nullptr) return config;
  reject_unknown_members(
      *value, "config",
      {"lambda_max", "alpha_max", "theta_max", "jeffreys", "scheme"});
  config.lambda_max = member_double(*value, "lambda_max", config.lambda_max);
  config.alpha_max = member_double(*value, "alpha_max", config.alpha_max);
  config.limits.theta_max =
      member_double(*value, "theta_max", config.limits.theta_max);
  if (const Json* jeffreys = value->find("jeffreys"); jeffreys != nullptr) {
    config.jeffreys_lambda0 = jeffreys->as_bool();
  }
  if (const Json* scheme = value->find("scheme"); scheme != nullptr) {
    const auto parsed = core::sampler_scheme_from_string(scheme->as_string());
    if (!parsed) {
      throw InvalidArgument("unknown sampler scheme \"" +
                            scheme->as_string() + "\"");
    }
    config.scheme = *parsed;
  }
  return config;
}

core::PriorKind parse_prior(const Json& request) {
  const Json* value = request.find("prior");
  // Absent prior: the first reproduction family (the paper's Poisson).
  if (value == nullptr) return core::reproduction_family_kinds().front();
  const auto* entry = core::find_family(value->as_string());
  if (entry == nullptr) {
    throw InvalidArgument("unknown prior \"" + value->as_string() +
                          "\" (use " + core::family_ids_joined() + ")");
  }
  return entry->kind;
}

core::DetectionModelKind parse_model(const Json& request,
                                     core::PriorKind prior) {
  const Json* value = request.find("model");
  if (value == nullptr) return core::family(prior).default_model;
  const auto parsed = core::detection_model_from_string(value->as_string());
  if (!parsed) {
    throw InvalidArgument("unknown model \"" + value->as_string() +
                          "\" (use model0..model4 or a registered "
                          "family-specific name)");
  }
  // Structured rejection listing the family's accepted models.
  core::validate_family_model(prior, *parsed);
  return *parsed;
}

/// Op-tagged canonical identity for the request shapes that are not plain
/// sweep cells (predict/release/select), built from the artifact layer's
/// canonical counts and Gibbs fields.
std::string op_identity(const Request& request) {
  Json json = Json::Object{};
  json.set("op", to_string(request.op));
  json.set("counts", artifact::canonical_counts(request.project));
  json.set("prior", core::to_string(request.fit.prior));
  json.set("model", core::to_string(request.fit.model));
  json.set("config", artifact::to_json(request.fit.config));
  json.set("gibbs", artifact::canonical_gibbs(request.fit.gibbs));
  switch (request.op) {
    case Op::kPredict:
      json.set("fit_days", Json::from_unsigned(request.fit_days));
      break;
    case Op::kRelease:
      json.set("observation_day",
               Json::from_unsigned(request.fit.observation_day));
      json.set("horizon", Json::from_unsigned(request.horizon));
      json.set("day_cost", request.costs.cost_per_testing_day);
      json.set("bug_cost", request.costs.cost_per_residual_bug);
      break;
    case Op::kSelect:
      json.set("observation_day",
               Json::from_unsigned(request.fit.observation_day));
      json.set("eventual_total", request.fit.eventual_total);
      break;
    default:
      break;
  }
  return json.dump();
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kFit: return "fit";
    case Op::kPredict: return "predict";
    case Op::kRelease: return "release";
    case Op::kSelect: return "select";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "?";
}

Request parse_request(const Json& json) {
  if (!json.is_object()) {
    throw InvalidArgument("request must be a JSON object");
  }
  Request request;
  if (const Json* id = json.find("id"); id != nullptr) request.id = *id;
  request.op = op_from_string(json.at("op").as_string());

  switch (request.op) {
    case Op::kStats:
    case Op::kShutdown:
      reject_unknown_members(json, "request", {"id", "op"});
      return request;
    case Op::kFit:
      reject_unknown_members(json, "request",
                             {"id", "op", "project", "day", "total", "prior",
                              "model", "config", "gibbs"});
      break;
    case Op::kPredict:
      reject_unknown_members(json, "request",
                             {"id", "op", "project", "fit_days", "prior",
                              "model", "config", "gibbs"});
      break;
    case Op::kRelease:
      reject_unknown_members(
          json, "request",
          {"id", "op", "project", "day", "horizon", "day_cost", "bug_cost",
           "prior", "model", "config", "gibbs"});
      break;
    case Op::kSelect:
      reject_unknown_members(
          json, "request",
          {"id", "op", "project", "day", "total", "config", "gibbs"});
      break;
  }

  request.project = parse_project(json.at("project"));
  request.fit.prior = parse_prior(json);
  request.fit.model = parse_model(json, request.fit.prior);
  request.fit.config = parse_config(json.find("config"));
  request.fit.gibbs = parse_gibbs(json.find("gibbs"));
  request.fit.observation_day =
      member_size(json, "day", request.project.days());
  SRM_EXPECTS(request.fit.observation_day >= 1, "day must be >= 1");
  if (const Json* total = json.find("total"); total != nullptr) {
    request.fit.eventual_total = total->as_int();
  } else {
    request.fit.eventual_total = request.project.total();
  }

  if (request.op == Op::kPredict) {
    request.fit_days = member_size(json, "fit_days", 0);
    SRM_EXPECTS(request.fit_days >= 1 &&
                    request.fit_days < request.project.days(),
                "fit_days must name a strict prefix of the project's series");
  }
  if (request.op == Op::kRelease) {
    request.horizon = member_size(json, "horizon", request.horizon);
    SRM_EXPECTS(request.horizon >= 1, "horizon must be >= 1");
    request.costs.cost_per_testing_day =
        member_double(json, "day_cost", request.costs.cost_per_testing_day);
    request.costs.cost_per_residual_bug =
        member_double(json, "bug_cost", request.costs.cost_per_residual_bug);
    SRM_EXPECTS(request.costs.cost_per_testing_day > 0.0,
                "day_cost must be > 0");
    SRM_EXPECTS(request.costs.cost_per_residual_bug >= 0.0,
                "bug_cost must be >= 0");
  }
  return request;
}

std::string request_hash(const Request& request) {
  switch (request.op) {
    case Op::kFit:
      // Exactly the sweep-cell identity: a serve cache and a sweep
      // artifact directory share cells.
      return artifact::cell_hash(request.project,
                                 core::to_experiment_spec(request.fit),
                                 request.fit.observation_day);
    case Op::kPredict:
    case Op::kRelease:
    case Op::kSelect:
      return artifact::hex64(artifact::fnv1a64(op_identity(request)));
    case Op::kStats:
    case Op::kShutdown:
      return "";
  }
  return "";
}

Json make_response(const Request& request, const std::string& hash,
                   Json result) {
  Json response = Json::Object{};
  if (request.id.has_value()) response.set("id", *request.id);
  response.set("ok", true);
  response.set("op", to_string(request.op));
  if (!hash.empty()) response.set("hash", hash);
  response.set("result", std::move(result));
  return response;
}

Json make_error(const std::optional<Json>& id, const std::string& message) {
  Json response = Json::Object{};
  if (id.has_value()) response.set("id", *id);
  response.set("ok", false);
  response.set("error", message);
  return response;
}

Json to_json(const core::PredictiveSummary& summary) {
  Json json = Json::Object{};
  json.set("log_score", summary.log_score);
  json.set("inconsistent_fraction", summary.inconsistent_fraction);
  json.set("mean_next_count", summary.mean_next_count);
  Json::Array cumulative;
  cumulative.reserve(summary.predicted_cumulative.size());
  for (const auto value : summary.predicted_cumulative) {
    cumulative.push_back(value);
  }
  json.set("predicted_cumulative", std::move(cumulative));
  json.set("fit_days", Json::from_unsigned(summary.fit_days));
  json.set("holdout_days", Json::from_unsigned(summary.holdout_days));
  return json;
}

Json to_json(const core::ReleasePlan& plan) {
  const auto decision_json = [](const core::ReleaseDecision& decision) {
    Json json = Json::Object{};
    json.set("day", Json::from_unsigned(decision.day));
    json.set("expected_cost", decision.expected_cost);
    json.set("expected_residual", decision.expected_residual);
    return json;
  };
  Json json = Json::Object{};
  Json::Array schedule;
  schedule.reserve(plan.schedule.size());
  for (const auto& decision : plan.schedule) {
    schedule.push_back(decision_json(decision));
  }
  json.set("schedule", std::move(schedule));
  json.set("best", decision_json(plan.best));
  return json;
}

}  // namespace srm::serve
