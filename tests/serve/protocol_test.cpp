// Protocol tests: strict request parsing (unknown members and malformed
// values are loud errors, never defaults), the canonical request hash, and
// the fit-cell/sweep-artifact identity interop.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include "artifact/spec_hash.hpp"
#include "data/datasets.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

namespace serve = srm::serve;
using srm::support::Json;

Json parse(const std::string& text) { return Json::parse(text); }

TEST(ServeProtocol, FitDefaultsResolveFromTheProject) {
  const auto request = serve::parse_request(
      parse(R"({"op":"fit","project":"sys1"})"));
  const auto sys1 = srm::data::sys1_grouped();

  EXPECT_EQ(request.op, serve::Op::kFit);
  EXPECT_EQ(request.fit.observation_day, sys1.days());
  EXPECT_EQ(request.fit.eventual_total, sys1.total());
  EXPECT_EQ(request.fit.prior, srm::core::PriorKind::kPoisson);
  EXPECT_EQ(request.fit.model, srm::core::DetectionModelKind::kConstant);
}

TEST(ServeProtocol, FitHashIsTheSweepCellHash) {
  // The interop guarantee: a serve fit cell and a sweep artifact cell with
  // the same settings share one identity, so a finished sweep directory
  // warm-starts the service.
  const auto request = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,"total":136,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":9}})"));
  const auto expected = srm::artifact::cell_hash(
      request.project, srm::core::to_experiment_spec(request.fit),
      request.fit.observation_day);
  EXPECT_EQ(serve::request_hash(request), expected);
}

TEST(ServeProtocol, HashSeparatesSeedsDaysAndOps) {
  const auto base = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":1}})"));
  const auto other_seed = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":48,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":2}})"));
  const auto other_day = serve::parse_request(parse(
      R"({"op":"fit","project":"sys1","day":67,)"
      R"("gibbs":{"chains":2,"burn_in":50,"iterations":100,"seed":1}})"));

  EXPECT_NE(serve::request_hash(base), serve::request_hash(other_seed));
  EXPECT_NE(serve::request_hash(base), serve::request_hash(other_day));

  const auto stats = serve::parse_request(parse(R"({"op":"stats"})"));
  EXPECT_EQ(serve::request_hash(stats), "");
}

TEST(ServeProtocol, OpHashesArePinned) {
  // The disk store keys predict/release/select cells on these hashes, so a
  // drift in the op-tagged canonical form would orphan every stored cell.
  const std::string gibbs =
      R"("gibbs":{"chains":2,"burn_in":30,"iterations":80,"seed":7}})";
  const auto hash = [&](const std::string& head) {
    return serve::request_hash(serve::parse_request(parse(head + gibbs)));
  };
  EXPECT_EQ(hash(R"({"op":"predict","project":"sys1","fit_days":60,)"),
            "9fa23d3fb11c9af3");
  EXPECT_EQ(
      hash(R"({"op":"release","project":"sys1","day":48,"horizon":20,)"),
      "a9fd1db8a97dc4b6");
  EXPECT_EQ(hash(R"({"op":"select","project":"sys1","day":48,)"),
            "95c990ab99d33083");
}

TEST(ServeProtocol, IdOfAnyJsonTypeIsEchoed) {
  const auto request = serve::parse_request(
      parse(R"({"id":{"k":[1,2]},"op":"stats"})"));
  ASSERT_TRUE(request.id.has_value());

  const auto ok = serve::make_response(request, "", Json::Object{});
  EXPECT_EQ(ok.at("id").dump(), R"({"k":[1,2]})");
  EXPECT_TRUE(ok.at("ok").as_bool());

  const auto error = serve::make_error(request.id, "boom");
  EXPECT_EQ(error.at("id").dump(), R"({"k":[1,2]})");
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("error").as_string(), "boom");
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  // Not an object at all.
  EXPECT_THROW(serve::parse_request(parse("[1,2]")), srm::InvalidArgument);
  // Unknown op.
  EXPECT_THROW(serve::parse_request(parse(R"({"op":"frobnicate"})")),
               srm::InvalidArgument);
  // Unknown top-level member (typo'd "gibs").
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","gibs":{}})")),
               srm::InvalidArgument);
  // Unknown gibbs member (typo'd "iteratons").
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1",)"
                   R"("gibbs":{"iteratons":10}})")),
               srm::InvalidArgument);
  // stats takes no estimation members.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"stats","project":"sys1"})")),
               srm::InvalidArgument);
  // select fixes the prior/model grid; naming one is an error.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"select","project":"sys1","prior":"poisson"})")),
               srm::InvalidArgument);
  // Unknown project name.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys99"})")),
               srm::InvalidArgument);
  // day must be >= 1.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1","day":0})")),
               srm::InvalidArgument);
  // Degenerate sampler settings.
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"fit","project":"sys1",)"
                   R"("gibbs":{"chains":0}})")),
               srm::InvalidArgument);
}

TEST(ServeProtocol, PredictRequiresAStrictPrefix) {
  const auto days = srm::data::sys1_grouped().days();
  EXPECT_NO_THROW(serve::parse_request(parse(
      R"({"op":"predict","project":"sys1","fit_days":48})")));
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"predict","project":"sys1","fit_days":0})")),
               srm::InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(parse(
          R"({"op":"predict","project":"sys1","fit_days":)" +
          std::to_string(days) + "}")),
      srm::InvalidArgument);
}

TEST(ServeProtocol, ReleaseValidatesCosts) {
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","day_cost":0})")),
               srm::InvalidArgument);
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","bug_cost":-1})")),
               srm::InvalidArgument);
  EXPECT_THROW(serve::parse_request(parse(
                   R"({"op":"release","project":"sys1","horizon":0})")),
               srm::InvalidArgument);
}

TEST(ServeProtocol, InlineProjectsAreFirstClass) {
  const auto request = serve::parse_request(parse(
      R"({"op":"fit","project":{"name":"toy","counts":[3,2,1]},"day":2})"));
  EXPECT_EQ(request.project.name(), "toy");
  EXPECT_EQ(request.project.days(), 3u);
  EXPECT_EQ(request.fit.observation_day, 2u);
  EXPECT_EQ(request.fit.eventual_total, 6);
}

}  // namespace
