// Transport-level tests for `srm serve`: the stdin/stdout line loop via
// run_serve over string streams (flag handling, --no-meta replay
// determinism, shutdown, stale and corrupt disk cells), and round trips
// over the unix-socket transport.
#include "serve/serve_command.hpp"

#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/cell_store.hpp"
#include "cli/args.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace {

namespace fs = std::filesystem;
namespace serve = srm::serve;
using srm::cli::Args;
using srm::support::Json;

std::string fit_line(int seed) {
  return std::string(R"({"op":"fit","project":)"
                     R"({"name":"cmd","counts":[3,2,2,1,1,0]},"day":5,)") +
         R"("gibbs":{"chains":2,"burn_in":10,"iterations":40,"seed":)" +
         std::to_string(seed) + "}}";
}

std::vector<std::string> run_stream(const std::vector<std::string>& flags,
                                    const std::string& input) {
  std::istringstream in(input);
  std::ostringstream out;
  std::ostringstream err;
  const int code = serve::run_serve(Args::parse(flags), in, out, err);
  EXPECT_EQ(code, 0);
  std::vector<std::string> lines;
  std::istringstream reader(out.str());
  for (std::string line; std::getline(reader, line);) {
    lines.push_back(line);
  }
  return lines;
}

TEST(ServeCommand, AnswersOneLinePerRequestInOrder) {
  const auto lines =
      run_stream({"--no-meta"}, fit_line(1) + "\n" + fit_line(1) + "\n" +
                                    R"({"op":"stats"})" + "\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], lines[1]);  // warm repeat, identical bytes
  const Json stats = Json::parse(lines[2]);
  EXPECT_TRUE(stats.at("ok").as_bool());
  // The stats request itself is already counted when its payload forms.
  EXPECT_EQ(stats.at("result").at("requests_total").as_int(), 3);
}

TEST(ServeCommand, NoMetaReplayIsAPureFunctionOfTheQueryStream) {
  // The CI smoke contract: replaying a query file against a fresh service
  // twice produces identical bytes, cold or warm.
  const std::string queries = fit_line(1) + "\n" + fit_line(2) + "\n" +
                              fit_line(1) + "\n";
  const auto first = run_stream({"--no-meta"}, queries);
  const auto second = run_stream({"--no-meta"}, queries);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first, second);
}

TEST(ServeCommand, MetaTagsTheCacheTierWithoutTouchingTheBody) {
  std::istringstream in(fit_line(1) + "\n" + fit_line(1) + "\n");
  std::ostringstream out;
  std::ostringstream err;
  // --batch 1 keeps the repeat out of the first batch, so it is a true
  // warm hit rather than an in-flight dedup share.
  ASSERT_EQ(serve::run_serve(Args::parse({"--batch", "1"}), in, out, err), 0);
  std::istringstream reader(out.str());
  std::string cold_line;
  std::string warm_line;
  ASSERT_TRUE(std::getline(reader, cold_line));
  ASSERT_TRUE(std::getline(reader, warm_line));

  const Json cold = Json::parse(cold_line);
  const Json warm = Json::parse(warm_line);
  EXPECT_EQ(cold.at("cache").as_string(), "computed");
  EXPECT_EQ(warm.at("cache").as_string(), "hit");
  // Stripping the meta members leaves identical bodies.
  const auto body_without_meta = [](const Json& response) {
    Json body = Json::Object{};
    for (const auto& [key, value] : response.as_object()) {
      if (key == "cache" || key == "latency_us") continue;
      body.set(key, value);
    }
    return body.dump();
  };
  EXPECT_EQ(body_without_meta(cold), body_without_meta(warm));
}

/// A fresh store directory holding the one cell `fit_line(1)` computes.
fs::path store_with_one_cell(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("srm_serve_cmd_" + name);
  fs::remove_all(dir);
  run_stream({"--no-meta", "--store", dir.string()}, fit_line(1) + "\n");
  return dir;
}

fs::path only_cell(const fs::path& dir) {
  std::vector<fs::path> cells;
  for (const auto& entry : fs::directory_iterator(dir / "cells")) {
    cells.push_back(entry.path());
  }
  EXPECT_EQ(cells.size(), 1u);
  return cells.empty() ? fs::path{} : cells.front();
}

TEST(ServeCommand, StaleSchemaDiskCellIsRecomputedAndRewritten) {
  // A store written by a build with another schema version is a cache
  // miss, not a fatal error: the cell is recomputed and overwritten.
  const auto dir = store_with_one_cell("stale");
  const auto cell = only_cell(dir);
  Json stale = Json::parse(srm::artifact::read_text_file(cell));
  stale.set("schema_version", srm::artifact::kSchemaVersion - 1);
  srm::artifact::write_file_atomic(cell, stale.dump(2));

  const auto lines = run_stream({"--store", dir.string()},
                                fit_line(1) + "\n" + fit_line(2) + "\n");
  ASSERT_EQ(lines.size(), 2u);
  const Json response = Json::parse(lines[0]);
  EXPECT_TRUE(response.at("ok").as_bool()) << lines[0];
  EXPECT_EQ(response.at("cache").as_string(), "computed");
  EXPECT_TRUE(Json::parse(lines[1]).at("ok").as_bool());
  EXPECT_EQ(Json::parse(srm::artifact::read_text_file(cell))
                .at("schema_version")
                .as_int(),
            srm::artifact::kSchemaVersion);

  // The rewritten cell now answers from the disk tier.
  const auto again = run_stream({"--store", dir.string()}, fit_line(1) + "\n");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(Json::parse(again[0]).at("cache").as_string(), "disk");
  fs::remove_all(dir);
}

TEST(ServeCommand, CorruptDiskCellFailsOnlyItsOwnRequests) {
  // Any other unreadable cell is that request's structured error; the
  // loop keeps answering the rest of the stream and exits 0.
  const auto dir = store_with_one_cell("corrupt");
  srm::artifact::write_file_atomic(only_cell(dir), "{\"hash\": ");

  const auto lines = run_stream(
      {"--no-meta", "--batch", "1", "--store", dir.string()},
      fit_line(1) + "\n" + fit_line(2) + "\n" + fit_line(1) + "\n" +
          R"({"op":"stats"})" + "\n");
  ASSERT_EQ(lines.size(), 4u);
  for (const std::size_t failed : {0u, 2u}) {
    const Json response = Json::parse(lines[failed]);
    EXPECT_FALSE(response.at("ok").as_bool()) << lines[failed];
    EXPECT_FALSE(response.at("error").as_string().empty());
  }
  EXPECT_TRUE(Json::parse(lines[1]).at("ok").as_bool()) << lines[1];
  EXPECT_TRUE(Json::parse(lines[3]).at("ok").as_bool()) << lines[3];
  fs::remove_all(dir);
}

TEST(ServeCommand, ShutdownRequestEndsTheLoopEarly) {
  const auto lines = run_stream(
      {"--no-meta"},
      R"({"op":"shutdown"})" + std::string("\n") + fit_line(1) + "\n");
  // The shutdown response is written; the queued fit line may still be in
  // the same greedy batch, but nothing after the loop exits.
  ASSERT_FALSE(lines.empty());
  const Json bye = Json::parse(lines.front());
  EXPECT_TRUE(bye.at("ok").as_bool());
  EXPECT_TRUE(bye.at("result").at("shutting_down").as_bool());
}

TEST(ServeCommand, UnknownFlagsAreRejected) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_THROW(
      serve::run_serve(Args::parse({"--cache-sise", "4"}), in, out, err),
      srm::InvalidArgument);
}

TEST(ServeCommand, SummaryLinesGoToTheErrorStream) {
  std::istringstream in(fit_line(1) + "\n" + fit_line(1) + "\n");
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(serve::run_serve(
                Args::parse({"--no-meta", "--summary-every", "1"}), in, out,
                err),
            0);
  EXPECT_NE(err.str().find("[serve] requests="), std::string::npos);
  EXPECT_NE(err.str().find("hit_rate="), std::string::npos);
}

#if defined(__unix__) || defined(__APPLE__)
/// Connects to the socket server at `path`, waiting for it to bind.
/// Returns the connected fd, or -1 when the server never appeared.
int connect_client(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  path.copy(address.sun_path, path.size());
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int candidate = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (candidate < 0) return -1;
    if (::connect(candidate, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0) {
      return candidate;
    }
    ::close(candidate);
    ::usleep(10'000);
  }
  return -1;
}

/// Writes `payload`, reads until the server closes, and returns the lines.
std::vector<std::string> send_and_collect(int fd,
                                          const std::string& payload) {
  EXPECT_EQ(::write(fd, payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  std::string received;
  char chunk[4096];
  for (ssize_t n = ::read(fd, chunk, sizeof(chunk)); n > 0;
       n = ::read(fd, chunk, sizeof(chunk))) {
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  std::vector<std::string> lines;
  std::istringstream reader(received);
  for (std::string line; std::getline(reader, line);) lines.push_back(line);
  return lines;
}

serve::ServiceOptions socket_service_options() {
  serve::ServiceOptions options;
  options.cache_capacity = 4;
  options.meta = false;
  return options;
}

TEST(ServeCommand, SocketTransportRoundTrips) {
  ASSERT_TRUE(serve::socket_transport_available());
  const std::string path = "/tmp/srm_serve_test.sock";

  serve::Service service(socket_service_options());
  // tests/ are outside the library tree, so a raw thread is fine here.
  std::thread server(
      [&] { serve::serve_over_socket(service, path, /*max_batch=*/16); });

  const int fd = connect_client(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const auto lines = send_and_collect(
      fd, fit_line(7) + "\n" + fit_line(7) + "\n" + R"({"op":"shutdown"})" +
              "\n");
  server.join();

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], lines[1]);  // same request, same bytes, across tiers
  EXPECT_TRUE(Json::parse(lines[2]).at("result").at("shutting_down")
                  .as_bool());
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ServeCommand, SocketServerSurvivesAClientThatLeavesEarly) {
  const std::string path = "/tmp/srm_serve_early_leave_test.sock";
  serve::Service service(socket_service_options());
  std::thread server(
      [&] { serve::serve_over_socket(service, path, /*max_batch=*/16); });

  // Connections are served one at a time, so while an idle client holds
  // the server, a second one sends a fit and leaves. Its answer can only
  // be written after it has gone.
  const int idle = connect_client(path);
  ASSERT_GE(idle, 0) << "could not connect to " << path;
  const int leaver = connect_client(path);
  ASSERT_GE(leaver, 0) << "could not connect to " << path;
  const std::string fit = fit_line(7) + "\n";
  ASSERT_EQ(::write(leaver, fit.data(), fit.size()),
            static_cast<ssize_t>(fit.size()));
  ::close(leaver);
  ::close(idle);

  // The next client is still served, and can shut the server down.
  const int fd = connect_client(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;
  const auto lines =
      send_and_collect(fd, fit_line(7) + "\n" + R"({"op":"shutdown"})" + "\n");
  server.join();

  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(Json::parse(lines[0]).at("ok").as_bool()) << lines[0];
  EXPECT_TRUE(Json::parse(lines[1]).at("result").at("shutting_down")
                  .as_bool());
}
#endif

}  // namespace
