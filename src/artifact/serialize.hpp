// JSON serializers for every result and spec type the experiment pipeline
// produces — the typed interchange format of the artifact layer.
//
// Contract: serialization is lossless and deterministic. Every double is
// written in shortest-exact form (support::Json::format_double) and parses
// back to the same bits; objects serialize members in a fixed order. A
// value round-tripped through to_json/dump/parse/from_json compares equal
// field-by-field at the bit level (tests/artifact/serialize_test.cpp holds
// this property over randomized SweepResults, including subnormals and -0).
#pragma once

#include <string>

#include "core/experiment.hpp"
#include "report/sweep.hpp"
#include "support/json.hpp"

namespace srm::artifact {

using support::Json;

// --- spec types -----------------------------------------------------------
Json to_json(const mcmc::GibbsOptions& gibbs);
mcmc::GibbsOptions gibbs_options_from_json(const Json& json);

Json to_json(const core::HyperPriorConfig& config);
core::HyperPriorConfig hyper_prior_config_from_json(const Json& json);

Json to_json(const report::SweepOptions& options);
report::SweepOptions sweep_options_from_json(const Json& json);

// --- result types ---------------------------------------------------------
Json to_json(const core::WaicResult& waic);
core::WaicResult waic_result_from_json(const Json& json);

Json to_json(const core::ParameterDiagnostics& diagnostics);
core::ParameterDiagnostics parameter_diagnostics_from_json(const Json& json);

Json to_json(const core::ResidualPosterior& posterior);
core::ResidualPosterior residual_posterior_from_json(const Json& json);

Json to_json(const core::ObservationResult& result);
core::ObservationResult observation_result_from_json(const Json& json);

Json to_json(const report::SweepCell& cell);
report::SweepCell sweep_cell_from_json(const Json& json);

Json to_json(const report::SweepResult& sweep);
report::SweepResult sweep_result_from_json(const Json& json);

// --- cell files -----------------------------------------------------------
/// The cells/<hash>.json envelope of one fit cell (schema_version, hash,
/// prior, model, observation_day, result). The sweep artifact store and the
/// estimation service's disk tier both write it, which is what lets a
/// finished sweep directory warm-start the service.
Json cell_envelope(const std::string& hash, core::PriorKind prior,
                   core::DetectionModelKind model, std::size_t observation_day,
                   const core::ObservationResult& result);

}  // namespace srm::artifact
