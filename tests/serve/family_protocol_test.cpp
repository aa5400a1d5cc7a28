// Registry-driven protocol behavior: family ids resolve through the
// registry, unknown ids are structured errors naming the accepted list,
// family-specific model names parse, and fork requests a family cannot
// honor are rejected up front.
#include "serve/protocol.hpp"

#include <string>

#include <gtest/gtest.h>

#include "core/model_family.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

namespace core = srm::core;
namespace serve = srm::serve;
using srm::support::Json;

Json parse(const std::string& text) { return Json::parse(text); }

TEST(ServeFamilyProtocol, EveryRegisteredFamilyIdParses) {
  for (const auto& family : core::model_families().families()) {
    const auto request = serve::parse_request(parse(
        R"({"op":"fit","project":"sys1","prior":")" + family.id + "\"}"));
    EXPECT_EQ(request.fit.prior, family.kind) << family.id;
    // Absent model resolves to the family's registered default.
    EXPECT_EQ(request.fit.model, family.default_model) << family.id;
  }
}

TEST(ServeFamilyProtocol, UnknownFamilyIdErrorNamesTheAcceptedList) {
  try {
    [[maybe_unused]] const auto request = serve::parse_request(
        parse(R"({"op":"fit","project":"sys1","prior":"klingon"})"));
    FAIL() << "unknown family id must not parse";
  } catch (const srm::InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("klingon"), std::string::npos) << what;
    EXPECT_NE(what.find(core::family_ids_joined()), std::string::npos)
        << what;
  }
}

TEST(ServeFamilyProtocol, FamilySpecificModelNameParses) {
  const auto request = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","prior":"sizebiased",)"
      R"("model":"multinomial"})"));
  EXPECT_EQ(request.fit.prior, core::PriorKind::kSizeBiased);
  EXPECT_EQ(request.fit.model,
            core::DetectionModelKind::kSizeBiasedMultinomial);
}

TEST(ServeFamilyProtocol, ModelOutsideTheFamilyGridIsRejected) {
  // model0 is a reproduction-grid name; the size-biased family does not
  // accept it, and the reproduction families do not accept "multinomial".
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","prior":"sizebiased",)"
                   R"("model":"model0"})")),
               srm::InvalidArgument);
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","prior":"poisson",)"
                   R"("model":"multinomial"})")),
               srm::InvalidArgument);
}

}  // namespace
