// Tests for the discrete-time SRM likelihood (Eqs 1-2), including the
// property that the joint pmf factorizes into the pointwise binomial terms
// and the N/zeta kernels used by the Gibbs conditionals.
#include "core/likelihood.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.hpp"
#include "random/rng.hpp"
#include "support/error.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// log Binomial(n, p) pmf at x in closed form.
double binomial_log_pmf(double n, double p, double x) {
  return std::lgamma(n + 1.0) - std::lgamma(x + 1.0) -
         std::lgamma(n - x + 1.0) + x * std::log(p) + (n - x) * std::log1p(-p);
}

TEST(PointwiseLikelihood, MatchesBinomialPmf) {
  const BugCountData data("t", {3, 2, 0, 1});
  const std::vector<double> p{0.2, 0.3, 0.1, 0.5};
  const std::int64_t n = 10;
  // Day 1: Binomial(10, 0.2) at 3.
  EXPECT_NEAR(core::log_pointwise_likelihood(data, 1, n, p),
              binomial_log_pmf(10, 0.2, 3), 1e-12);
  // Day 2: 7 remain, Binomial(7, 0.3) at 2.
  EXPECT_NEAR(core::log_pointwise_likelihood(data, 2, n, p),
              binomial_log_pmf(7, 0.3, 2), 1e-12);
  // Day 4: 5 remain, Binomial(5, 0.5) at 1.
  EXPECT_NEAR(core::log_pointwise_likelihood(data, 4, n, p),
              binomial_log_pmf(5, 0.5, 1), 1e-12);
}

TEST(JointLikelihood, FactorizesOverDays) {
  const BugCountData data("t", {2, 1, 3});
  const std::vector<double> p{0.25, 0.4, 0.6};
  const std::int64_t n = 9;
  double sum = 0.0;
  for (std::size_t day = 1; day <= 3; ++day) {
    sum += core::log_pointwise_likelihood(data, day, n, p);
  }
  EXPECT_NEAR(core::log_likelihood(data, n, p), sum, 1e-12);
}

TEST(JointLikelihood, ImpossibleWhenBugsExceedInitialContent) {
  const BugCountData data("t", {5, 5});
  const std::vector<double> p{0.5, 0.5};
  EXPECT_EQ(core::log_likelihood(data, 9, p), kNegInf);
  EXPECT_GT(core::log_likelihood(data, 10, p), kNegInf);
}

TEST(JointLikelihood, DegenerateProbabilities) {
  const BugCountData zero_counts("t", {0, 0});
  const std::vector<double> p_zero{0.0, 0.0};
  // p = 0 with zero counts is certain.
  EXPECT_DOUBLE_EQ(core::log_likelihood(zero_counts, 5, p_zero), 0.0);
  const BugCountData some_counts("t", {1, 0});
  EXPECT_EQ(core::log_likelihood(some_counts, 5, p_zero), kNegInf);
  // p = 1 forces everything to be found immediately.
  const BugCountData all_at_once("t", {5});
  const std::vector<double> p_one{1.0};
  EXPECT_DOUBLE_EQ(core::log_likelihood(all_at_once, 5, p_one), 0.0);
  EXPECT_EQ(core::log_likelihood(all_at_once, 6, p_one), kNegInf);
}

// Property: the N-kernel equals the full likelihood up to a term constant
// in N, so likelihood ratios in N must agree between the two.
class NKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NKernelProperty, MatchesLikelihoodRatiosInN) {
  srm::random::Rng rng(GetParam());
  // Random dataset and probabilities.
  const std::size_t days = 3 + rng.uniform_index(6);
  std::vector<double> p;
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < days; ++i) {
    p.push_back(rng.uniform(0.05, 0.6));
    counts.push_back(static_cast<std::int64_t>(rng.uniform_index(4)));
  }
  const BugCountData data("t", std::move(counts));
  const std::int64_t base_n = data.total() + 2;
  for (const std::int64_t n : {base_n + 1, base_n + 5, base_n + 20}) {
    const double kernel_ratio =
        core::log_likelihood_n_kernel(data, n, p) -
        core::log_likelihood_n_kernel(data, base_n, p);
    const double full_ratio = core::log_likelihood(data, n, p) -
                              core::log_likelihood(data, base_n, p);
    EXPECT_NEAR(kernel_ratio, full_ratio, 1e-8)
        << "n=" << n << " days=" << days;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, NKernelProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Property: the zeta-kernel equals the full likelihood up to a term
// constant in zeta (for fixed N), so differences across probability
// vectors must agree.
class ZetaKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ZetaKernelProperty, MatchesLikelihoodRatiosInZeta) {
  srm::random::Rng rng(GetParam() + 1000);
  const std::size_t days = 3 + rng.uniform_index(5);
  std::vector<std::int64_t> counts;
  for (std::size_t i = 0; i < days; ++i) {
    counts.push_back(static_cast<std::int64_t>(rng.uniform_index(3)));
  }
  const BugCountData data("t", std::move(counts));
  const std::int64_t n = data.total() + 7;
  std::vector<double> p1;
  std::vector<double> p2;
  for (std::size_t i = 0; i < days; ++i) {
    p1.push_back(rng.uniform(0.05, 0.7));
    p2.push_back(rng.uniform(0.05, 0.7));
  }
  const double kernel_diff = core::log_likelihood_zeta_kernel(data, n, p1) -
                             core::log_likelihood_zeta_kernel(data, n, p2);
  const double full_diff =
      core::log_likelihood(data, n, p1) - core::log_likelihood(data, n, p2);
  EXPECT_NEAR(kernel_diff, full_diff, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, ZetaKernelProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// Property: the collapsed base kernel satisfies
//   collapsed_base(p) = zeta_kernel(data, s_k, p)
// because sum_i (s_k - s_i) log q_i is exactly the zeta kernel at N = s_k.
class CollapsedBaseProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CollapsedBaseProperty, EqualsZetaKernelAtMinimalN) {
  srm::random::Rng rng(GetParam() + 2000);
  const std::size_t days = 2 + rng.uniform_index(6);
  std::vector<std::int64_t> counts;
  std::vector<double> p;
  for (std::size_t i = 0; i < days; ++i) {
    counts.push_back(static_cast<std::int64_t>(rng.uniform_index(4)));
    p.push_back(rng.uniform(0.05, 0.8));
  }
  const BugCountData data("t", std::move(counts));
  EXPECT_NEAR(core::log_likelihood_collapsed_base(data, p),
              core::log_likelihood_zeta_kernel(data, data.total(), p), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CollapsedBaseProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(SurvivalProduct, MatchesDirectProduct) {
  const std::vector<double> p{0.1, 0.25, 0.5};
  EXPECT_NEAR(core::survival_product(p), 0.9 * 0.75 * 0.5, 1e-14);
  EXPECT_NEAR(core::log_survival_product(p),
              std::log(0.9 * 0.75 * 0.5), 1e-12);
}

TEST(SurvivalProduct, CertainDetectionGivesZero) {
  const std::vector<double> p{0.3, 1.0, 0.2};
  EXPECT_EQ(core::survival_product(p), 0.0);
  EXPECT_EQ(core::log_survival_product(p), kNegInf);
}

TEST(SurvivalProduct, RejectsOutOfRangeProbabilities) {
  const std::vector<double> p{0.3, 1.2};
  EXPECT_THROW(core::survival_product(p), srm::InvalidArgument);
}

TEST(Likelihood, DayOutOfRangeThrows) {
  const BugCountData data("t", {1, 1});
  const std::vector<double> p{0.5, 0.5};
  EXPECT_THROW(core::log_pointwise_likelihood(data, 0, 5, p),
               srm::InvalidArgument);
  EXPECT_THROW(core::log_pointwise_likelihood(data, 3, 5, p),
               srm::InvalidArgument);
}

TEST(Likelihood, TooFewProbabilitiesThrow) {
  const BugCountData data("t", {1, 1, 1});
  const std::vector<double> p{0.5, 0.5};
  EXPECT_THROW(core::log_likelihood(data, 5, p), srm::InvalidArgument);
}

}  // namespace
