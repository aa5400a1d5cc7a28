// The model-family registry contract: registration validation (duplicate
// ids/kinds and malformed records are loud errors), completeness of the
// process registry, the reproduction-grid membership, name round-trips,
// per-family model/fork validation, and the single make_model construction
// path for every registered cell.
#include "core/model_family.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using core::DetectionModelKind;
using core::ModelFamily;
using core::ModelFamilyRegistry;
using core::PriorKind;

/// A minimal valid record for registration-validation tests.
ModelFamily stub_family(PriorKind kind, std::string id) {
  ModelFamily family;
  family.kind = kind;
  family.id = std::move(id);
  family.display_name = "Stub";
  family.table_title = "(s) Stub prior.";
  family.selection_models = {DetectionModelKind::kConstant};
  family.accepted_models = {DetectionModelKind::kConstant};
  family.default_model = DetectionModelKind::kConstant;
  return family;
}

TEST(ModelFamilyRegistry, RejectsDuplicateId) {
  ModelFamilyRegistry registry;
  registry.add(stub_family(PriorKind::kPoisson, "twin"));
  EXPECT_THROW(registry.add(stub_family(PriorKind::kNegativeBinomial, "twin")),
               srm::InvalidArgument);
}

TEST(ModelFamilyRegistry, RejectsDuplicateKind) {
  ModelFamilyRegistry registry;
  registry.add(stub_family(PriorKind::kPoisson, "first"));
  EXPECT_THROW(registry.add(stub_family(PriorKind::kPoisson, "second")),
               srm::InvalidArgument);
}

TEST(ModelFamilyRegistry, RejectsMalformedRecords) {
  // Empty id.
  {
    ModelFamilyRegistry registry;
    EXPECT_THROW(registry.add(stub_family(PriorKind::kPoisson, "")),
                 srm::InvalidArgument);
  }
  // A selection_models entry absent from accepted_models.
  {
    ModelFamilyRegistry registry;
    auto family = stub_family(PriorKind::kPoisson, "badgrid");
    family.selection_models = {DetectionModelKind::kWeibull};
    EXPECT_THROW(registry.add(std::move(family)), srm::InvalidArgument);
  }
}

TEST(ModelFamilyRegistry, UnregisteredKindAndUnknownIdAreHandled) {
  ModelFamilyRegistry registry;
  registry.add(stub_family(PriorKind::kPoisson, "only"));
  EXPECT_THROW(static_cast<void>(registry.family(PriorKind::kSizeBiased)),
               srm::InvalidArgument);
  EXPECT_EQ(registry.find("absent"), nullptr);
  ASSERT_NE(registry.find("only"), nullptr);
  EXPECT_EQ(registry.find("only")->kind, PriorKind::kPoisson);
}

TEST(ModelFamilyRegistry, ProcessRegistryCoversEveryKind) {
  // Every PriorKind enumerator has a record, ids are unique and non-empty,
  // and each record's selection grid is inside its accepted superset.
  const std::vector<PriorKind> kinds = {PriorKind::kPoisson,
                                        PriorKind::kNegativeBinomial,
                                        PriorKind::kSizeBiased};
  std::set<std::string> ids;
  for (const auto kind : kinds) {
    const auto& family = core::family(kind);
    EXPECT_EQ(family.kind, kind);
    EXPECT_FALSE(family.id.empty());
    EXPECT_TRUE(ids.insert(family.id).second) << family.id;
    EXPECT_FALSE(family.selection_models.empty());
    for (const auto model : family.selection_models) {
      EXPECT_NE(std::find(family.accepted_models.begin(),
                          family.accepted_models.end(), model),
                family.accepted_models.end())
          << family.id;
    }
    EXPECT_NE(std::find(family.accepted_models.begin(),
                        family.accepted_models.end(), family.default_model),
              family.accepted_models.end())
        << family.id;
    EXPECT_EQ(core::find_family(family.id), &family);
  }
  EXPECT_EQ(core::model_families().families().size(), kinds.size());
}

TEST(ModelFamilyRegistry, ReproductionGridIsPoissonThenNegbin) {
  const auto kinds = core::reproduction_family_kinds();
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], PriorKind::kPoisson);
  EXPECT_EQ(kinds[1], PriorKind::kNegativeBinomial);
  EXPECT_FALSE(core::family(PriorKind::kSizeBiased).reproduction);
}

TEST(ModelFamilyRegistry, StableIdsRoundTripThroughStrings) {
  for (const auto& family : core::model_families().families()) {
    EXPECT_EQ(core::to_string(family.kind), family.id);
    const auto parsed = core::prior_kind_from_string(family.id);
    ASSERT_TRUE(parsed.has_value()) << family.id;
    EXPECT_EQ(*parsed, family.kind);
  }
  EXPECT_FALSE(core::prior_kind_from_string("bogus").has_value());
  // The joined list names every family — this is the error/help surface.
  const auto joined = core::family_ids_joined();
  for (const auto& family : core::model_families().families()) {
    EXPECT_NE(joined.find(family.id), std::string::npos) << joined;
  }
}

TEST(ModelFamilyRegistry, ValidateFamilyModelRejectsForeignDetectionKinds) {
  // The size-biased family only accepts its multinomial detection model,
  // and the reproduction families do not accept it.
  EXPECT_NO_THROW(core::validate_family_model(
      PriorKind::kSizeBiased, DetectionModelKind::kSizeBiasedMultinomial));
  EXPECT_THROW(core::validate_family_model(PriorKind::kSizeBiased,
                                           DetectionModelKind::kConstant),
               srm::InvalidArgument);
  EXPECT_THROW(
      core::validate_family_model(PriorKind::kPoisson,
                                  DetectionModelKind::kSizeBiasedMultinomial),
      srm::InvalidArgument);
}

TEST(ModelFamilyRegistry, MakeModelConstructsEveryRegisteredCell) {
  const auto data = srm::data::sys1_grouped();
  for (const auto& family : core::model_families().families()) {
    for (const auto model_kind : family.selection_models) {
      const auto model =
          core::make_model(family.kind, model_kind, data, {});
      ASSERT_NE(model, nullptr) << family.id;
      EXPECT_EQ(model->family(), family.kind) << family.id;
      EXPECT_EQ(model->detection_model().kind(), model_kind) << family.id;
      // Layout invariants every downstream consumer relies on.
      EXPECT_EQ(model->residual_index(), 0u);
      EXPECT_EQ(model->state_size(),
                model->zeta_offset() +
                    model->detection_model().parameter_count());
      EXPECT_EQ(model->parameter_names().size(), model->state_size());
    }
    // A detection kind outside the accepted set never constructs.
    EXPECT_THROW(core::make_model(family.kind,
                                  family.accepted_models.front() ==
                                          DetectionModelKind::kConstant
                                      ? DetectionModelKind::kSizeBiasedMultinomial
                                      : DetectionModelKind::kConstant,
                                  data, {}),
                 srm::InvalidArgument);
  }
}

TEST(ModelFamilyRegistry, MarkdownTableListsEveryFamily) {
  const auto table = core::render_family_table_markdown();
  for (const auto& family : core::model_families().families()) {
    EXPECT_NE(table.find("`" + family.id + "`"), std::string::npos)
        << family.id;
    EXPECT_NE(table.find(family.display_name), std::string::npos)
        << family.id;
  }
}

}  // namespace
