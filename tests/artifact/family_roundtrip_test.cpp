// Serialization identity per model family: every registered family's cell
// round-trips losslessly through the canonical JSON form, the omit-if-
// default rules keep pre-registry artifact bytes unchanged, and unknown
// family ids fail loudly with the accepted list.
#include <string>

#include <gtest/gtest.h>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "core/model_family.hpp"
#include "data/bug_count_data.hpp"
#include "support/error.hpp"

namespace {

namespace artifact = srm::artifact;
namespace core = srm::core;
using srm::support::Json;

srm::data::BugCountData toy() {
  return srm::data::BugCountData("toy", {1, 0, 2, 1, 3, 0, 1, 2, 0, 1});
}

srm::report::SweepCell cell_for(const core::ModelFamily& family) {
  srm::report::SweepCell cell;
  cell.prior = family.kind;
  cell.model = family.default_model;
  cell.config.limits.sb_shape_max = 35.0;
  return cell;
}

/// The single-day spec a sweep runs for `cell` (report::run_sweep).
core::ExperimentSpec spec_of(const srm::report::SweepCell& cell) {
  core::ExperimentSpec spec;
  spec.prior = cell.prior;
  spec.model = cell.model;
  spec.config = cell.config;
  spec.gibbs.seed = 20240624;
  spec.observation_days = {5};
  spec.eventual_total = 12;
  return spec;
}

TEST(FamilyRoundTrip, EveryRegisteredFamilySpecSurvivesSerialization) {
  for (const auto& family : core::model_families().families()) {
    const auto cell = cell_for(family);
    const auto json = artifact::to_json(cell);
    // The family's stable id is the serialized byte form.
    EXPECT_EQ(json.at("prior").as_string(), family.id);

    const auto parsed =
        artifact::sweep_cell_from_json(Json::parse(json.dump()));
    EXPECT_EQ(parsed.prior, cell.prior) << family.id;
    EXPECT_EQ(parsed.model, cell.model) << family.id;
    EXPECT_EQ(parsed.config.limits.sb_shape_max, 35.0) << family.id;
    // Identity follows: the cell hash is a pure function of the canonical
    // form, so a round-tripped cell addresses the same artifact.
    EXPECT_EQ(artifact::cell_hash(toy(), spec_of(parsed), 5),
              artifact::cell_hash(toy(), spec_of(cell), 5))
        << family.id;
  }
}

TEST(FamilyRoundTrip, UnknownFamilyIdIsAStructuredParseError) {
  auto json =
      artifact::to_json(cell_for(core::family(core::PriorKind::kPoisson)));
  json.set("prior", Json("klingon"));
  try {
    (void)artifact::sweep_cell_from_json(json);
    FAIL() << "unknown family id must not parse";
  } catch (const srm::InvalidArgument& error) {
    // The message names the accepted ids so callers can self-correct.
    const std::string what = error.what();
    EXPECT_NE(what.find("klingon"), std::string::npos) << what;
    EXPECT_NE(what.find(core::family_ids_joined()), std::string::npos)
        << what;
  }
}

TEST(FamilyRoundTrip, SizeBiasedLimitsAreOmittedAtDefaults) {
  // Omit-if-default: a config at the stock limits serializes to the exact
  // pre-registry byte form (no sb_* members), so every existing cell hash
  // and artifact directory stays reachable.
  core::HyperPriorConfig config;
  const auto stock = artifact::to_json(config).dump();
  EXPECT_EQ(stock.find("sb_shape_max"), std::string::npos) << stock;
  EXPECT_EQ(stock.find("sb_scale_max"), std::string::npos) << stock;

  config.limits.sb_shape_max = 35.0;
  const auto widened = artifact::to_json(config);
  EXPECT_NE(widened.dump().find("sb_shape_max"), std::string::npos);
  const auto parsed =
      artifact::hyper_prior_config_from_json(Json::parse(widened.dump()));
  EXPECT_EQ(parsed.limits.sb_shape_max, 35.0);
  // And the round trip of the stock form restores the defaults.
  const auto restocked =
      artifact::hyper_prior_config_from_json(Json::parse(stock));
  EXPECT_EQ(restocked.limits.sb_shape_max,
            core::DetectionModelLimits{}.sb_shape_max);
}

TEST(FamilyRoundTrip, SweepFamiliesMemberIsRejected) {
  // A sweep always lays out the reproduction families, and the sweep hash
  // never covered a "families" member, so options carrying one must not
  // load as the default grid.
  srm::report::SweepOptions options;
  options.observation_days = {5};
  options.eventual_total = 11;
  auto json = artifact::to_json(options);
  EXPECT_EQ(json.find("families"), nullptr);
  json.set("families", Json(Json::Array{Json("sizebiased")}));
  try {
    (void)artifact::sweep_options_from_json(Json::parse(json.dump()));
    FAIL() << "a families member must not load";
  } catch (const srm::InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("families"), std::string::npos) << what;
  }
}

}  // namespace
