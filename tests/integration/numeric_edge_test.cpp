// Numeric edge inputs end to end: an all-zero series and a one-day series
// through fit_cell (both paper priors, every selection model) and through
// the estimation service's fit and select ops; a 10^5-bug series and a
// 1 000-day window through fit_cell for every selection cell, the fit CLI
// and a serve fit line. Every number in the result (posterior summary,
// WAIC, convergence diagnostics) must be finite.
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/serialize.hpp"
#include "cli/commands.hpp"
#include "core/fit.hpp"
#include "core/model_family.hpp"
#include "data/bug_count_data.hpp"
#include "serve/service.hpp"
#include "support/json.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;
using srm::support::Json;

struct EdgeSeries {
  const char* name;
  std::vector<std::int64_t> counts;
};

const std::vector<EdgeSeries>& edge_series() {
  static const std::vector<EdgeSeries> series{{"zeros", {0, 0, 0, 0}},
                                              {"one_day", {3}}};
  return series;
}

/// Past the n < 4096 log_factorial table: 10^5 bugs in three days, under a
/// lambda_max that can hold them. And a 1 000-day window with one to three
/// bugs on every ninth day.
struct LargeSeries {
  const char* name;
  std::vector<std::int64_t> counts;
  double lambda_max;
};

const std::vector<LargeSeries>& large_series() {
  static const std::vector<LargeSeries> series = [] {
    std::vector<std::int64_t> window(1000, 0);
    for (std::size_t i = 0; i < window.size(); i += 9) {
      window[i] = 1 + static_cast<std::int64_t>((i / 9) % 3);
    }
    return std::vector<LargeSeries>{{"bugs1e5", {50000, 30000, 20000}, 4e5},
                                    {"days1000", window, 2000.0}};
  }();
  return series;
}

std::string counts_text(const std::vector<std::int64_t>& counts) {
  std::string text;
  for (const auto count : counts) {
    if (!text.empty()) text += ',';
    text += std::to_string(count);
  }
  return text;
}

srm::mcmc::GibbsOptions small_gibbs() {
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 30;
  gibbs.iterations = 40;
  gibbs.seed = 11;
  return gibbs;
}

/// Every number in `json` is finite; `path` names the first that is not.
void expect_all_finite(const Json& json, const std::string& path) {
  switch (json.type()) {
    case Json::Type::kDouble:
      EXPECT_TRUE(std::isfinite(json.as_double())) << path;
      break;
    case Json::Type::kArray:
      for (std::size_t i = 0; i < json.as_array().size(); ++i) {
        expect_all_finite(json.as_array()[i],
                          path + "[" + std::to_string(i) + "]");
      }
      break;
    case Json::Type::kObject:
      for (const auto& [key, value] : json.as_object()) {
        expect_all_finite(value, path + "." + key);
      }
      break;
    default:
      break;
  }
}

TEST(NumericEdge, ZeroAndSingleDaySeriesFitFinitely) {
  for (const auto& series : edge_series()) {
    const BugCountData data(series.name, series.counts);
    for (const auto prior :
         {core::PriorKind::kPoisson, core::PriorKind::kNegativeBinomial}) {
      for (const auto model : core::family(prior).selection_models) {
        core::FitRequest request;
        request.prior = prior;
        request.model = model;
        request.gibbs = small_gibbs();
        request.observation_day = data.days();
        request.eventual_total = data.total();
        const auto result = core::fit_cell(data, request);
        ASSERT_FALSE(result.diagnostics.empty());
        expect_all_finite(srm::artifact::to_json(result),
                          std::string(series.name) + " " +
                              core::to_string(prior) + "/" +
                              core::to_string(model));
      }
    }
  }
}

TEST(NumericEdge, ZeroAndSingleDaySeriesServeFinitely) {
  srm::serve::ServiceOptions options;
  options.meta = false;
  srm::serve::Service service(std::move(options));
  for (const auto& series : edge_series()) {
    const std::string project = R"("project":{"name":")" +
                                std::string(series.name) +
                                R"(","counts":[)" +
                                counts_text(series.counts) + "]}";
    const std::string gibbs =
        R"("gibbs":{"chains":2,"burn_in":30,"iterations":40,"seed":11})";
    // select ranks every family's grid, so it takes no prior.
    for (const std::string op_and_prior :
         {R"("op":"fit","prior":"poisson")", R"("op":"fit","prior":"negbin")",
          R"("op":"select")"}) {
      const std::string line =
          "{" + op_and_prior + "," + project + "," + gibbs + "}";
      const auto response = service.handle_line(line);
      ASSERT_TRUE(response.ok) << line << " -> " << response.line;
      expect_all_finite(Json::parse(response.line), line);
    }
  }
}

TEST(NumericEdge, LargeTotalsAndLongWindowsFitFinitely) {
  for (const auto& series : large_series()) {
    const BugCountData data(series.name, series.counts);
    for (const auto& family : core::model_families().families()) {
      for (const auto model : family.selection_models) {
        core::FitRequest request;
        request.prior = family.kind;
        request.model = model;
        request.config.lambda_max = series.lambda_max;
        request.gibbs = small_gibbs();
        request.observation_day = data.days();
        request.eventual_total = data.total();
        const auto result = core::fit_cell(data, request);
        ASSERT_FALSE(result.diagnostics.empty());
        expect_all_finite(srm::artifact::to_json(result),
                          std::string(series.name) + " " + family.id + "/" +
                              core::to_string(model));
      }
    }
  }
}

TEST(NumericEdge, LargeTotalsAndLongWindowsThroughCliAndServe) {
  srm::serve::ServiceOptions options;
  options.meta = false;
  srm::serve::Service service(std::move(options));
  for (const auto& series : large_series()) {
    const auto csv = std::filesystem::temp_directory_path() /
                     ("srm_numeric_edge_" + std::string(series.name) + ".csv");
    {
      std::ofstream file(csv);
      file << "day,count\n";
      for (std::size_t i = 0; i < series.counts.size(); ++i) {
        file << i + 1 << ',' << series.counts[i] << '\n';
      }
    }
    const std::string lambda_max = std::to_string(series.lambda_max);
    for (const auto& [prior, model] : {std::pair{"poisson", "model1"},
                                       std::pair{"negbin", "model2"}}) {
      const std::string where =
          std::string(series.name) + " " + prior + "/" + model;
      std::ostringstream out;
      std::ostringstream err;
      const int code = srm::cli::dispatch(
          "fit",
          {"--csv", csv.string(), "--prior", prior, "--model", model,
           "--lambda-max", lambda_max, "--chains", "2", "--burn-in", "30",
           "--iterations", "40", "--seed", "11", "--format", "json"},
          out, err);
      ASSERT_EQ(code, 0) << where << ": " << err.str();
      expect_all_finite(Json::parse(out.str()), "cli " + where);

      const std::string line =
          R"({"op":"fit","prior":")" + std::string(prior) +
          R"(","model":")" + model + R"(","project":{"name":")" +
          series.name + R"(","counts":[)" + counts_text(series.counts) +
          R"(]},"config":{"lambda_max":)" + lambda_max +
          R"(},"gibbs":{"chains":2,"burn_in":30,"iterations":40,"seed":11}})";
      const auto response = service.handle_line(line);
      ASSERT_TRUE(response.ok) << where << " -> " << response.line;
      expect_all_finite(Json::parse(response.line), "serve " + where);
    }
    std::filesystem::remove(csv);
  }
}

}  // namespace
