#include "artifact/spec_hash.hpp"

#include <cstdio>

#include "artifact/serialize.hpp"
#include "support/json.hpp"

namespace srm::artifact {

namespace {

using support::Json;

Json canonical_counts(const data::BugCountData& base) {
  Json::Array counts;
  counts.reserve(base.days());
  for (const auto count : base.counts()) counts.push_back(count);
  return counts;
}

/// Result-determining Gibbs fields only (see the header's contract).
Json canonical_gibbs(const mcmc::GibbsOptions& gibbs) {
  Json json = Json::Object{};
  json.set("chain_count", Json::from_unsigned(gibbs.chain_count));
  json.set("burn_in", Json::from_unsigned(gibbs.burn_in));
  json.set("iterations", Json::from_unsigned(gibbs.iterations));
  json.set("thin", Json::from_unsigned(gibbs.thin));
  json.set("seed", static_cast<std::int64_t>(gibbs.seed));
  return json;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(buffer);
}

std::string cell_identity(const data::BugCountData& base,
                          const core::ExperimentSpec& spec,
                          std::size_t observation_day) {
  Json json = Json::Object{};
  json.set("counts", canonical_counts(base));
  json.set("prior", core::to_string(spec.prior));
  json.set("model", core::to_string(spec.model));
  json.set("config", to_json(spec.config));
  json.set("gibbs", canonical_gibbs(spec.gibbs));
  json.set("observation_day", Json::from_unsigned(observation_day));
  json.set("eventual_total", spec.eventual_total);
  return json.dump();
}

std::string cell_hash(const data::BugCountData& base,
                      const core::ExperimentSpec& spec,
                      std::size_t observation_day) {
  return hex64(fnv1a64(cell_identity(base, spec, observation_day)));
}

std::string sweep_identity(const data::BugCountData& base,
                           const report::SweepOptions& options) {
  Json json = Json::Object{};
  json.set("counts", canonical_counts(base));
  Json::Array days;
  days.reserve(options.observation_days.size());
  for (const auto day : options.observation_days) {
    days.push_back(Json::from_unsigned(day));
  }
  json.set("observation_days", std::move(days));
  json.set("eventual_total", options.eventual_total);
  json.set("gibbs", canonical_gibbs(options.gibbs));
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
  return json.dump();
}

std::string sweep_hash(const data::BugCountData& base,
                       const report::SweepOptions& options) {
  return hex64(fnv1a64(sweep_identity(base, options)));
}

}  // namespace srm::artifact
