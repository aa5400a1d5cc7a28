// Numeric edge inputs end to end: an all-zero series and a one-day series
// through fit_cell (both paper priors, every selection model) and through
// the estimation service's fit and select ops. Every number in the result
// (posterior summary, WAIC, convergence diagnostics) must be finite.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "artifact/serialize.hpp"
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
    std::string counts;
    for (const auto count : series.counts) {
      if (!counts.empty()) counts += ',';
      counts += std::to_string(count);
    }
    const std::string project = R"("project":{"name":")" +
                                std::string(series.name) +
                                R"(","counts":[)" + counts + "]}";
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

}  // namespace
