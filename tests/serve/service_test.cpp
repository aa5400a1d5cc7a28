// Service end-to-end tests: cold/warm/disk cache tiers with byte-identical
// response bodies, in-flight dedup inside a batch, structured errors for
// hostile input, the stats/shutdown ops, byte-identity across worker
// counts, and the sweep-artifact warm-start interop.
#include "serve/service.hpp"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/store.hpp"
#include "report/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "support/json.hpp"

namespace {

namespace fs = std::filesystem;
namespace serve = srm::serve;
using srm::support::Json;

fs::path scratch(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("srm_serve_service_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Service with deterministic response bytes (no latency meta).
serve::Service make_service(std::size_t capacity = 8,
                            std::optional<fs::path> store = std::nullopt) {
  serve::ServiceOptions options;
  options.cache_capacity = capacity;
  options.store_dir = std::move(store);
  options.meta = false;
  return serve::Service(std::move(options));
}

/// A laptop-instant fit request over an inline project; `seed` varies the
/// cache identity.
std::string fit_line(int seed, int day = 6) {
  return std::string(R"({"op":"fit","project":)"
                     R"({"name":"svc","counts":[4,3,2,2,1,0,1,0]},)") +
         "\"day\":" + std::to_string(day) +
         ",\"gibbs\":{\"chains\":2,\"burn_in\":10,\"iterations\":40," +
         "\"seed\":" + std::to_string(seed) + "}}";
}

TEST(ServeService, ColdComputesThenWarmHitsByteIdentical) {
  auto service = make_service();
  const auto cold = service.handle_line(fit_line(1));
  ASSERT_TRUE(cold.ok) << cold.line;
  EXPECT_EQ(cold.cache_tag, "computed");

  const auto warm = service.handle_line(fit_line(1));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache_tag, "hit");
  EXPECT_EQ(warm.line, cold.line);
  EXPECT_EQ(service.computed(), 1u);
  EXPECT_EQ(service.memory_hits(), 1u);
}

TEST(ServeService, IdenticalRequestsInOneBatchComputeOnce) {
  auto service = make_service();
  const std::vector<std::string> batch = {fit_line(1), fit_line(1),
                                          fit_line(1), fit_line(2)};
  const auto responses = service.handle_batch(batch);
  ASSERT_EQ(responses.size(), 4u);
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok) << response.line;
    EXPECT_EQ(response.cache_tag, "computed");
  }
  // Three identical requests share one in-flight computation.
  EXPECT_EQ(service.dedup_shared(), 2u);
  EXPECT_EQ(service.cache().size(), 2u);
  EXPECT_EQ(responses[0].line, responses[1].line);
  EXPECT_EQ(responses[0].line, responses[2].line);
  EXPECT_NE(responses[0].line, responses[3].line);
}

TEST(ServeService, EvictedPosteriorIsReServedFromStoreByteIdentical) {
  const auto dir = scratch("evict_disk");
  auto service = make_service(1, dir);

  const auto first = service.handle_line(fit_line(1));
  ASSERT_TRUE(first.ok);
  EXPECT_EQ(first.cache_tag, "computed");

  const auto evictor = service.handle_line(fit_line(2));
  ASSERT_TRUE(evictor.ok);
  EXPECT_EQ(service.cache().evictions(), 1u);

  const auto again = service.handle_line(fit_line(1));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.cache_tag, "disk");
  EXPECT_EQ(again.line, first.line);
  EXPECT_EQ(service.disk_hits(), 1u);
  fs::remove_all(dir);
}

TEST(ServeService, RecomputeWithoutStoreIsStillByteIdentical) {
  auto service = make_service(1);
  const auto first = service.handle_line(fit_line(1));
  service.handle_line(fit_line(2));  // evicts seed 1; no disk tier
  const auto again = service.handle_line(fit_line(1));
  ASSERT_TRUE(again.ok);
  EXPECT_EQ(again.cache_tag, "computed");
  EXPECT_EQ(again.line, first.line);
}

TEST(ServeService, HostileInputYieldsStructuredErrorsNeverThrows) {
  auto service = make_service();
  const std::vector<std::string> hostile = {
      "not json at all",
      "{",
      "[1,2,3]",
      "\"just a string\"",
      R"({"op":"frobnicate"})",
      R"({"op":"fit"})",
      R"({"op":"fit","project":"sys99"})",
      R"({"op":"fit","project":{"name":"x","counts":[]}})",
      R"({"op":"fit","project":{"name":"x","counts":[1]},"bogus":true})",
      R"({"op":"fit","project":{"name":"x","counts":[1]},)"
      R"("gibbs":{"vectorized":true}})",
      R"({"op":"fit","project":{"name":"x","counts":[1]},)"
      R"("gibbs":{"chain_lanes":true}})",
  };
  for (const auto& line : hostile) {
    const auto response = service.handle_line(line);
    EXPECT_FALSE(response.ok) << line;
    // Every error is itself one complete JSON object line.
    const Json parsed = Json::parse(response.line);
    EXPECT_FALSE(parsed.at("ok").as_bool());
    EXPECT_FALSE(parsed.at("error").as_string().empty());
  }
  EXPECT_EQ(service.computed(), 0u);
}

TEST(ServeService, ErrorResponsesEchoTheRequestId) {
  auto service = make_service();
  const auto response =
      service.handle_line(R"({"id":42,"op":"fit","project":"sys99"})");
  EXPECT_FALSE(response.ok);
  const Json parsed = Json::parse(response.line);
  EXPECT_EQ(parsed.at("id").as_int(), 42);
}

TEST(ServeService, StatsReportsCountersAndShutdownStopsTheLoop) {
  auto service = make_service();
  service.handle_line(fit_line(1));
  service.handle_line(fit_line(1));

  const auto stats = service.handle_line(R"({"op":"stats"})");
  ASSERT_TRUE(stats.ok);
  const Json parsed = Json::parse(stats.line);
  const Json& result = parsed.at("result");
  // The stats request itself is counted before its payload is assembled.
  EXPECT_EQ(result.at("requests_total").as_int(), 3);
  EXPECT_EQ(result.at("cache").at("computed").as_int(), 1);
  EXPECT_EQ(result.at("cache").at("memory_hits").as_int(), 1);
  EXPECT_FALSE(result.at("cache").at("disk_tier").as_bool());

  EXPECT_FALSE(service.shutdown_requested());
  const auto bye = service.handle_line(R"({"op":"shutdown"})");
  ASSERT_TRUE(bye.ok);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeService, PredictAndReleaseRespond) {
  auto service = make_service();
  const auto predict = service.handle_line(
      R"({"op":"predict","project":)"
      R"({"name":"svc","counts":[4,3,2,2,1,0,1,0]},"fit_days":6,)"
      R"("gibbs":{"chains":2,"burn_in":10,"iterations":40,"seed":3}})");
  ASSERT_TRUE(predict.ok) << predict.line;
  const Json predict_json = Json::parse(predict.line);
  EXPECT_EQ(predict_json.at("result").at("fit_days").as_int(), 6);
  EXPECT_EQ(predict_json.at("result").at("holdout_days").as_int(), 2);

  const auto release = service.handle_line(
      R"({"op":"release","project":)"
      R"({"name":"svc","counts":[4,3,2,2,1,0,1,0]},"day":6,"horizon":3,)"
      R"("day_cost":1.0,"bug_cost":10.0,)"
      R"("gibbs":{"chains":2,"burn_in":10,"iterations":40,"seed":3}})");
  ASSERT_TRUE(release.ok) << release.line;
  const Json release_json = Json::parse(release.line);
  EXPECT_EQ(release_json.at("result").at("schedule").as_array().size(), 4u);
  EXPECT_TRUE(release_json.at("result").at("best").is_object());
}

TEST(ServeService, SelectRanksTheModelGridByWaic) {
  auto service = make_service(16);
  const auto response = service.handle_line(
      R"({"op":"select","project":)"
      R"({"name":"svc","counts":[4,3,2,2,1,0,1,0]},"day":6,)"
      R"("gibbs":{"chains":2,"burn_in":10,"iterations":40,"seed":5}})");
  ASSERT_TRUE(response.ok) << response.line;
  EXPECT_EQ(response.cache_tag, "computed");

  const Json parsed = Json::parse(response.line);
  const auto& ranking = parsed.at("result").at("ranking").as_array();
  // 2 reproduction priors x 5 detection models + the size-biased family.
  ASSERT_EQ(ranking.size(), 11u);
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    EXPECT_LE(ranking[i - 1].at("waic").as_double(),
              ranking[i].at("waic").as_double());
  }
  EXPECT_EQ(parsed.at("result").at("best").dump(), ranking.front().dump());

  // All eleven cells are now resident: a repeat is a pure memory hit.
  const auto warm = service.handle_line(
      R"({"op":"select","project":)"
      R"({"name":"svc","counts":[4,3,2,2,1,0,1,0]},"day":6,)"
      R"("gibbs":{"chains":2,"burn_in":10,"iterations":40,"seed":5}})");
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.cache_tag, "hit");
  EXPECT_EQ(warm.line, response.line);
}

TEST(ServeService, ResponsesAreByteIdenticalForAnyWorkerCount) {
  const std::vector<std::string> queries = {
      fit_line(1), fit_line(2), fit_line(3), fit_line(1),
      fit_line(4), fit_line(2), fit_line(1), fit_line(5)};

  const auto run_with = [&](std::size_t workers) {
    srm::runtime::ThreadPool::set_global_thread_count(workers);
    auto service = make_service();
    std::vector<std::string> lines;
    std::vector<std::string> tags;
    for (const auto& response : service.handle_batch(queries)) {
      lines.push_back(response.line);
      tags.push_back(response.cache_tag);
    }
    return std::make_pair(lines, tags);
  };

  const auto serial = run_with(1);
  const auto parallel = run_with(4);
  srm::runtime::ThreadPool::set_global_thread_count(0);  // restore default

  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
}

TEST(ServeService, SweepArtifactDirectoryWarmStartsTheService) {
  const auto dir = scratch("sweep_interop");
  const srm::data::BugCountData toy("toy", {1, 0, 2, 1, 3, 0, 1, 2, 0, 1});
  srm::report::SweepOptions options;
  options.observation_days = {5};
  options.eventual_total = 11;
  options.gibbs.chain_count = 2;
  options.gibbs.burn_in = 10;
  options.gibbs.iterations = 60;
  options.gibbs.seed = 99;
  options.gibbs.keep_traces = false;
  {
    srm::artifact::ArtifactStore store(dir, toy, options, /*resume=*/false);
    srm::report::SweepExecution execution;
    srm::report::run_sweep(toy, options, &store, &execution);
    ASSERT_TRUE(execution.complete());
  }

  // A service over the sweep's directory answers the matching fit request
  // from the disk tier without sampling anything.
  auto service = make_service(8, dir);
  const auto response = service.handle_line(
      R"({"op":"fit","project":{"name":"toy","counts":[1,0,2,1,3,0,1,2,0,1]},)"
      R"("day":5,"total":11,"prior":"poisson","model":"model0",)"
      R"("gibbs":{"chains":2,"burn_in":10,"iterations":60,"seed":99}})");
  ASSERT_TRUE(response.ok) << response.line;
  EXPECT_EQ(response.cache_tag, "disk");
  EXPECT_EQ(service.computed(), 0u);
  fs::remove_all(dir);
}

}  // namespace
