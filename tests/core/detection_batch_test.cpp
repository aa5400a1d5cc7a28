// Range-kernel tests for the detection-model channels.
//
// Every channel runs one per-model kernel over a range of days. A scalar
// probability(d) call is a one-day range starting at day d; a batch call
// is the range starting at day 1. The kernels hoist day-invariant
// subexpressions, carry a day power (model4) or a log (multinomial) from
// one day to the next and read day-indexed tables at an offset
// (model2/3), so a one-day range at day d must equal day d of a range from
// day 1 BIT FOR BIT — which is what keeps fixed-seed MCMC traces
// unchanged. Probed across the full parameter supports, including the
// boundary regions where model2's mu^e overflows. The checked entry points
// reject a short buffer, a wrong-sized zeta and day 0 for every kind.
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/detection_models.hpp"
#include "support/error.hpp"

namespace {

using srm::core::DetectionModelKind;
using srm::core::DetectionModelLimits;
using srm::core::make_detection_model;

constexpr std::size_t kDays = 150;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Probe vectors spanning each parameter's support, including near-boundary
/// values that exercise the overflow/underflow branches.
std::vector<std::vector<double>> probe_grid(const srm::core::DetectionModel& m) {
  const auto supports = m.parameter_supports(DetectionModelLimits{});
  const double fractions[] = {1e-9, 0.1, 0.35, 0.5, 0.9, 1.0 - 1e-9};
  std::vector<std::vector<double>> grid;
  if (supports.size() == 1) {
    for (const double f : fractions) {
      const auto& s = supports[0];
      grid.push_back({s.lower + f * (s.upper - s.lower)});
    }
  } else {
    for (const double f0 : fractions) {
      for (const double f1 : fractions) {
        const auto& s0 = supports[0];
        const auto& s1 = supports[1];
        grid.push_back({s0.lower + f0 * (s0.upper - s0.lower),
                        s1.lower + f1 * (s1.upper - s1.lower)});
      }
    }
  }
  return grid;
}

class DetectionBatch : public ::testing::TestWithParam<DetectionModelKind> {};

TEST_P(DetectionBatch, ProbabilitiesIntoMatchesScalarBitwise) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->probabilities_into(kDays, zeta, batch);
    for (std::size_t day = 1; day <= kDays; ++day) {
      const double scalar = model->probability(day, zeta);
      ASSERT_EQ(bits(batch[day - 1]), bits(scalar))
          << model->name() << " day " << day;
    }
  }
}

TEST_P(DetectionBatch, LogSurvivalsIntoMatchesScalarBitwise) {
  // The log channel has no one-day entry point: a caller reads day d as the
  // last entry of the range 1..d, which must equal day d of a longer range.
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  std::vector<double> prefix(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->log_survivals_into(kDays, zeta, batch);
    for (std::size_t day = 1; day <= kDays; ++day) {
      model->log_survivals_into(day, zeta, prefix);
      ASSERT_EQ(bits(batch[day - 1]), bits(prefix[day - 1]))
          << model->name() << " day " << day;
    }
  }
}

TEST_P(DetectionBatch, FusedChannelMatchesSingleChannelsBitwise) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> p_single(kDays);
  std::vector<double> q_single(kDays);
  std::vector<double> p_fused(kDays);
  std::vector<double> q_fused(kDays);
  for (const auto& zeta : probe_grid(*model)) {
    model->probabilities_into(kDays, zeta, p_single);
    model->log_survivals_into(kDays, zeta, q_single);
    model->detection_into(kDays, zeta, p_fused, q_fused);
    for (std::size_t i = 0; i < kDays; ++i) {
      ASSERT_EQ(bits(p_fused[i]), bits(p_single[i])) << model->name();
      ASSERT_EQ(bits(q_fused[i]), bits(q_single[i])) << model->name();
    }
  }
}

TEST_P(DetectionBatch, VectorConvenienceMatchesBatch) {
  const auto model = make_detection_model(GetParam());
  std::vector<double> batch(kDays);
  const auto grid = probe_grid(*model);
  const auto& zeta = grid.front();
  const auto p = model->probabilities(kDays, zeta);
  model->probabilities_into(kDays, zeta, batch);
  ASSERT_EQ(p.size(), kDays);
  for (std::size_t i = 0; i < kDays; ++i) {
    ASSERT_EQ(bits(p[i]), bits(batch[i]));
  }
}

TEST_P(DetectionBatch, BatchRejectsUndersizedBuffer) {
  const auto model = make_detection_model(GetParam());
  const auto grid = probe_grid(*model);
  const auto& zeta = grid.front();
  std::vector<double> small(kDays - 1);
  EXPECT_THROW(model->probabilities_into(kDays, zeta, small),
               srm::InvalidArgument);
  EXPECT_THROW(model->log_survivals_into(kDays, zeta, small),
               srm::InvalidArgument);
  std::vector<double> full(kDays);
  EXPECT_THROW(model->detection_into(kDays, zeta, full, small),
               srm::InvalidArgument);
  EXPECT_THROW(model->detection_into(kDays, zeta, small, full),
               srm::InvalidArgument);
  EXPECT_THROW((void)model->probability(0, zeta), srm::InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, DetectionBatch,
    ::testing::Values(DetectionModelKind::kConstant,
                      DetectionModelKind::kPadgettSpurrier,
                      DetectionModelKind::kLogLogistic,
                      DetectionModelKind::kPareto,
                      DetectionModelKind::kWeibull,
                      DetectionModelKind::kRayleigh,
                      DetectionModelKind::kLearningCurve,
                      DetectionModelKind::kSizeBiasedMultinomial),
    [](const ::testing::TestParamInfo<DetectionModelKind>& param_info) {
      return srm::core::to_string(param_info.param);
    });

}  // namespace
