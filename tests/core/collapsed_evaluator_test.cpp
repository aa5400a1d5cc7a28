// Oracle tests for the collapsed evaluators (core/collapsed_evaluator.hpp).
//
// Every full evaluation and every prepare-then-probe sequence is checked
// three ways:
//   * (base, log Q) is never NaN;
//   * against a long-double per-day evaluation of the same two sums, to
//     1e-12 relative (absolute below DBL_MIN, where double has no relative
//     precision) wherever the double result is finite — the oracle forms
//     p_i and q_i each without cancellation and takes the log of whichever
//     is below 1/2 (log1p of the other above it);
//   * against the reference channel path (detection_into +
//     log_likelihood_collapsed_base), to 1e-9 relative wherever every p_i
//     lies in [1e-5, 1 - 1e-6], and bit for bit for the kinds that use
//     that path. Outside that range the channels lose digits: their
//     1 - mu^e and log(t + mu) - log1p(t) forms as p_i -> 0, their log of
//     a rounded p_i ~ 1 as p_i -> 1 (which dominates base on a one-day
//     series).
// The channel kinds (model5, model6) meet the long-double tolerance only
// where every p_i lies in [1e-3, 1 - 1e-3], for the same reason.
#include "core/collapsed_evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.hpp"
#include "random/rng.hpp"
#include "support/format.hpp"

namespace {

namespace core = srm::core;
using core::CollapsedSums;
using core::DetectionModelKind;
using srm::data::BugCountData;
using Long = long double;

constexpr double kOracleTolerance = 1e-12;
constexpr double kChannelTolerance = 1e-9;

struct LongSums {
  Long base = 0.0L;
  Long log_survival = 0.0L;
};

Long log1mexp_long(Long x) {
  return x > -0.693147180559945309417L ? std::log(-std::expm1(x))
                                       : std::log1p(-std::exp(x));
}

/// log p and log q from p and q that each carry full relative precision.
void logs_of(Long p, Long q, Long& log_p, Long& log_q) {
  log_p = p < 0.5L ? std::log(p) : std::log1p(-q);
  log_q = q < 0.5L ? std::log(q) : std::log1p(-p);
}

/// Long-double per-day log p_i and log q_i of the seven hazard models.
void day_logs(DetectionModelKind kind, std::span<const double> zeta,
              std::size_t day, Long& log_p, Long& log_q) {
  const Long mu = zeta[0];
  const Long d = static_cast<Long>(day);
  switch (kind) {
    case DetectionModelKind::kConstant:
      logs_of(mu, 1.0L - mu, log_p, log_q);
      return;
    case DetectionModelKind::kPadgettSpurrier: {
      const Long theta_day = static_cast<Long>(zeta[1]) * d;
      logs_of((theta_day + (1.0L - mu)) / (1.0L + theta_day),
              mu / (1.0L + theta_day), log_p, log_q);
      return;
    }
    case DetectionModelKind::kLogLogistic: {
      const Long t = std::exp((std::log(d) - static_cast<Long>(zeta[1]) +
                               1.0L) * std::log(mu));
      logs_of((1.0L - mu) / (1.0L + t), (t + mu) / (1.0L + t), log_p, log_q);
      return;
    }
    case DetectionModelKind::kPareto:
      log_q = std::log(d + 2.0L) / (d + 1.0L) * std::log(mu);
      log_p = log1mexp_long(log_q);
      return;
    case DetectionModelKind::kWeibull: {
      // i^w - (i-1)^w without cancellation as w -> 0.
      const Long omega = zeta[1];
      const Long exponent =
          day == 1 ? 1.0L
                   : std::pow(d - 1.0L, omega) *
                         std::expm1(omega * std::log1p(1.0L / (d - 1.0L)));
      log_q = exponent * std::log(mu);
      log_p = log1mexp_long(log_q);
      return;
    }
    case DetectionModelKind::kRayleigh:
      log_q = (2.0L * d - 1.0L) * std::log(mu);
      log_p = log1mexp_long(log_q);
      return;
    case DetectionModelKind::kLearningCurve: {
      const Long theta_day = static_cast<Long>(zeta[1]) * d;
      logs_of(mu * theta_day / (theta_day + 1.0L),
              (theta_day * (1.0L - mu) + 1.0L) / (theta_day + 1.0L), log_p,
              log_q);
      return;
    }
    case DetectionModelKind::kSizeBiasedMultinomial:
      // log q_d = shape log((c + d - 1) / (c + d)); c + (d - 1) keeps a
      // tiny scale c that c + d - 1 would round away at d = 1.
      log_q = -static_cast<Long>(zeta[0]) *
              std::log1p(1.0L / (static_cast<Long>(zeta[1]) + (d - 1.0L)));
      log_p = log1mexp_long(log_q);
      return;
  }
}

LongSums oracle(DetectionModelKind kind, std::span<const double> zeta,
                const BugCountData& data) {
  LongSums sums;
  const auto counts = data.counts();
  const auto cumulative = data.cumulative();
  for (std::size_t i = 0; i < data.days(); ++i) {
    Long log_p = 0.0L;
    Long log_q = 0.0L;
    day_logs(kind, zeta, i + 1, log_p, log_q);
    if (counts[i] > 0) sums.base += static_cast<Long>(counts[i]) * log_p;
    sums.base += static_cast<Long>(data.total() - cumulative[i]) * log_q;
    sums.log_survival += log_q;
  }
  return sums;
}

/// |value - reference| over the larger magnitude; 0 for a difference below
/// DBL_MIN, where double has no relative precision.
double relative_error(double value, Long reference) {
  const Long diff = std::abs(static_cast<Long>(value) - reference);
  if (diff <= static_cast<Long>(std::numeric_limits<double>::min())) {
    return 0.0;
  }
  return static_cast<double>(
      diff / std::max(std::abs(static_cast<Long>(value)), std::abs(reference)));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

bool uses_channel_path(DetectionModelKind kind) {
  return kind == DetectionModelKind::kRayleigh ||
         kind == DetectionModelKind::kLearningCurve;
}

struct Series {
  std::string name;
  BugCountData data;
};

std::vector<Series> test_series() {
  const auto sys1 = srm::data::sys1_grouped();
  std::vector<std::int64_t> sparse(1000, 0);
  for (std::size_t i = 3; i < sparse.size(); i += 7) sparse[i] = 40;
  // 30 days of 250-549 bugs each, 11 895 in all: every day takes the
  // large-count branch of the product accumulator.
  std::vector<std::int64_t> heavy(30);
  for (std::size_t i = 0; i < heavy.size(); ++i) {
    heavy[i] = 250 + static_cast<std::int64_t>((i * 97) % 300);
  }
  return {
      {"sys1_day48", sys1.truncated(48)},
      {"sys1_day96", sys1.truncated(96)},
      {"sys1_padded146", sys1.with_virtual_testing(146)},
      {"one_day", BugCountData("one_day", {7})},
      {"single_nonzero", BugCountData("single_nonzero", {0, 0, 9, 0, 0, 0})},
      {"sparse1000", BugCountData("sparse1000", sparse)},
      {"heavy30", BugCountData("heavy30", heavy)},
  };
}

/// Uniform points on the support, points within 1e-12 of each bound, and
/// the per-model edge cases (tiny omega, overflowing log-logistic t_i).
std::vector<std::vector<double>> test_points(
    DetectionModelKind kind,
    const std::vector<core::ParameterSupport>& supports, std::size_t uniform,
    srm::random::Rng& rng) {
  const auto draw = [&] {
    std::vector<double> zeta;
    for (const auto& s : supports) zeta.push_back(rng.uniform(s.lower, s.upper));
    return zeta;
  };
  std::vector<std::vector<double>> points;
  for (std::size_t n = 0; n < uniform; ++n) points.push_back(draw());
  for (std::size_t j = 0; j < supports.size(); ++j) {
    for (int rep = 0; rep < 3; ++rep) {
      auto low = draw();
      low[j] = supports[j].lower + 1e-12 * rng.uniform_open();
      points.push_back(low);
      auto high = draw();
      high[j] = supports[j].upper - 1e-12 * rng.uniform_open();
      points.push_back(high);
    }
  }
  if (kind == DetectionModelKind::kWeibull) {
    for (const double omega : {1e-12, 1e-6}) {
      for (int rep = 0; rep < 3; ++rep) points.push_back({rng.uniform(), omega});
    }
  }
  if (kind == DetectionModelKind::kLogLogistic) {
    const double bound = supports[1].upper - 1e-9;
    points.push_back({1e-40, bound});
    points.push_back({1e-40, -bound});
  }
  return points;
}

class EvaluatorOracle {
 public:
  EvaluatorOracle(DetectionModelKind kind, const Series& series)
      : kind_(kind),
        series_(series),
        model_(core::make_detection_model(kind)),
        evaluator_(core::make_collapsed_evaluator(*model_, series.data)),
        channel_(core::make_channel_evaluator(*model_, series.data)) {}

  /// Checks sums the evaluator returned for the full vector `zeta`.
  void check(const CollapsedSums& got, std::span<const double> zeta,
             const std::string& how) {
    const std::string where = core::to_string(kind_) + " " + series_.name +
                              " " + how + " zeta=" + describe(zeta);
    ++checked_;
    ASSERT_FALSE(std::isnan(got.base)) << where;
    ASSERT_FALSE(std::isnan(got.log_survival)) << where;
    const CollapsedSums reference = channel_->evaluate(zeta);
    if (uses_channel_path(kind_)) {
      EXPECT_EQ(bits(got.base), bits(reference.base)) << where;
      EXPECT_EQ(bits(got.log_survival), bits(reference.log_survival))
          << where;
    } else if (every_p_within(zeta, 1e-5, 1.0 - 1e-6)) {
      EXPECT_LE(relative_error(got.base, reference.base), kChannelTolerance)
          << where << " base " << got.base << " vs channel "
          << reference.base;
      EXPECT_LE(relative_error(got.log_survival, reference.log_survival),
                kChannelTolerance)
          << where << " log Q " << got.log_survival << " vs channel "
          << reference.log_survival;
    }
    if (uses_channel_path(kind_) && !every_p_within(zeta, 1e-3, 1.0 - 1e-3)) {
      return;
    }
    const LongSums exact = oracle(kind_, zeta, series_.data);
    if (std::isfinite(got.base)) {
      const double error = relative_error(got.base, exact.base);
      EXPECT_LE(error, kOracleTolerance)
          << where << " base " << got.base << " vs long double "
          << static_cast<double>(exact.base);
      worst_ = std::max(worst_, error);
    }
    if (std::isfinite(got.log_survival)) {
      const double error = relative_error(got.log_survival, exact.log_survival);
      EXPECT_LE(error, kOracleTolerance)
          << where << " log Q " << got.log_survival << " vs long double "
          << static_cast<double>(exact.log_survival);
      worst_ = std::max(worst_, error);
    }
  }

  /// evaluate() at every point, then for each coordinate: prepare at the
  /// point with that coordinate moved, probe two other values, probe the
  /// point's own value.
  void run(const std::vector<std::vector<double>>& points,
           const std::vector<core::ParameterSupport>& supports,
           srm::random::Rng& rng) {
    for (const auto& zeta : points) {
      check(evaluator_->evaluate(zeta), zeta, "evaluate");
      for (std::size_t j = 0; j < zeta.size(); ++j) {
        auto start = zeta;
        start[j] = rng.uniform(supports[j].lower, supports[j].upper);
        evaluator_->prepare(start, j);
        for (int probe = 0; probe < 2; ++probe) {
          auto moved = zeta;
          moved[j] = rng.uniform(supports[j].lower, supports[j].upper);
          check(evaluator_->probe(moved[j]), moved,
                "probe coordinate " + srm::support::dec(j));
        }
        check(evaluator_->probe(zeta[j]), zeta,
              "probe back coordinate " + srm::support::dec(j));
      }
    }
  }

  [[nodiscard]] std::size_t checked() const { return checked_; }
  [[nodiscard]] double worst() const { return worst_; }

 private:
  bool every_p_within(std::span<const double> zeta, double lo,
                      double hi) const {
    for (const double p : model_->probabilities(series_.data.days(), zeta)) {
      if (!(p >= lo && p <= hi)) return false;
    }
    return true;
  }

  static std::string describe(std::span<const double> zeta) {
    std::string text;
    for (const double z : zeta) {
      char buffer[32];
      std::snprintf(buffer, sizeof buffer, "%.17g ", z);
      text += buffer;
    }
    return text;
  }

  DetectionModelKind kind_;
  const Series& series_;
  std::unique_ptr<core::DetectionModel> model_;
  std::unique_ptr<core::CollapsedEvaluator> evaluator_;
  std::unique_ptr<core::CollapsedEvaluator> channel_;
  std::size_t checked_ = 0;
  double worst_ = 0.0;
};

class CollapsedEvaluatorOracle
    : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(CollapsedEvaluatorOracle, MatchesLongDoubleAndChannelPaths) {
  const DetectionModelKind kind = GetParam();
  const auto model = core::make_detection_model(kind);
  const auto supports = model->parameter_supports({});
  srm::random::Rng rng(20240624 + static_cast<std::uint64_t>(kind));
  std::size_t checked = 0;
  double worst = 0.0;
  for (const auto& series : test_series()) {
    const std::size_t uniform = series.data.days() > 500 ? 8 : 24;
    EvaluatorOracle oracle_check(kind, series);
    oracle_check.run(test_points(kind, supports, uniform, rng), supports,
                     rng);
    checked += oracle_check.checked();
    worst = std::max(worst, oracle_check.worst());
  }
  EXPECT_GT(checked, 100u);
  char worst_text[32];
  std::snprintf(worst_text, sizeof worst_text, "%.2e", worst);
  RecordProperty("worst_relative_error_vs_long_double", worst_text);
}

std::string kind_name(const ::testing::TestParamInfo<DetectionModelKind>& i) {
  return core::to_string(i.param);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, CollapsedEvaluatorOracle,
    ::testing::Values(DetectionModelKind::kConstant,
                      DetectionModelKind::kPadgettSpurrier,
                      DetectionModelKind::kLogLogistic,
                      DetectionModelKind::kPareto, DetectionModelKind::kWeibull,
                      DetectionModelKind::kRayleigh,
                      DetectionModelKind::kLearningCurve,
                      DetectionModelKind::kSizeBiasedMultinomial),
    kind_name);

}  // namespace
