// The strongest end-to-end correctness test in the suite: for a small
// model0 SRM the exact marginal posterior of the residual count R is
// computable by brute-force numeric integration. Poisson prior —
//
//   p(R | x) ∝ ∫∫ Poisson(R; lambda Q(mu)) lambda^{s_k} e^{-lambda (1-Q)}
//              base(mu) dlambda dmu
//
// over the uniform hyperprior box (the lambda-integrand uses the collapsed
// identities derived in DESIGN.md; base(mu) = prod p^x q^{s_k - s_i}).
// Negative binomial prior — beta0 (a Beta integral) and then alpha0 over
// (0, A) integrate in closed form, leaving
//
//   p(R | x) ∝ [(s_k + R)! / R!] g(s_k + R) ∫ base(mu) Q(mu)^R dmu,
//   g(N) = (N + 1) ln((A + N + 1)/(N + 1)) - N ln((A + N)/N),
//
// with A = alpha_max. For the heterogeneous Poisson cells (model3 on a
// mu grid, model4 on a (mu, omega) grid, and the size-biased family, whose
// bug-content layer is Poisson, on a (shape, scale) grid) lambda0
// integrates in closed form,
//
//   ∫_0^{lambda_max} Poisson(R; lambda Q) lambda^{s_k} e^{-lambda (1-Q)} dlambda
//     = Q^R Gamma(s_k + R + 1) P(s_k + R + 1, lambda_max) / R!,
//
// with base(zeta) from log_likelihood_collapsed_base over the detection
// channels, so these oracles share no code with the sampler's collapsed
// evaluators. The full Gibbs sampler must reproduce every pmf.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "core/likelihood.hpp"
#include "mcmc/gibbs.hpp"
#include "support/math.hpp"

namespace {

namespace core = srm::core;
using srm::data::BugCountData;

TEST(PosteriorExactness, GibbsMatchesBruteForceIntegration) {
  const BugCountData data("t", {2, 1, 1, 0, 1});
  const double lambda_max = 40.0;

  // --- Brute force: grid over (lambda, mu), analytic in R. --------------
  constexpr int kLambdaSteps = 400;
  constexpr int kMuSteps = 400;
  constexpr std::int64_t kMaxR = 120;
  std::vector<double> posterior(kMaxR + 1, 0.0);
  const auto model0 =
      core::make_detection_model(core::DetectionModelKind::kConstant);
  for (int im = 0; im < kMuSteps; ++im) {
    const double mu = (im + 0.5) / kMuSteps;
    const std::vector<double> zeta{mu};
    const auto p = model0->probabilities(data.days(), zeta);
    const double base =
        std::exp(core::log_likelihood_collapsed_base(data, p));
    const double q_product = core::survival_product(p);
    for (int il = 0; il < kLambdaSteps; ++il) {
      const double lambda = lambda_max * (il + 0.5) / kLambdaSteps;
      const double weight =
          base * std::pow(lambda, static_cast<double>(data.total())) *
          std::exp(-lambda * (1.0 - q_product));
      // R | lambda, mu ~ Poisson(lambda * Q).
      const double rate = lambda * q_product;
      double pmf = std::exp(-rate);
      for (std::int64_t r = 0; r <= kMaxR; ++r) {
        posterior[static_cast<std::size_t>(r)] += weight * pmf;
        pmf *= rate / static_cast<double>(r + 1);
      }
    }
  }
  double total = 0.0;
  for (const double v : posterior) total += v;
  for (double& v : posterior) v /= total;

  // --- MCMC. -------------------------------------------------------------
  core::HyperPriorConfig config;
  config.lambda_max = lambda_max;
  const core::BayesianSrm model(core::PriorKind::kPoisson,
                                core::DetectionModelKind::kConstant, data,
                                config);
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 1000;
  gibbs.iterations = 40000;
  gibbs.seed = 1234;
  const auto run = srm::mcmc::run_gibbs(model, gibbs);
  const auto samples = run.pooled("residual");
  std::vector<double> empirical(kMaxR + 1, 0.0);
  std::size_t inside = 0;
  for (const double s : samples) {
    const auto r = static_cast<std::int64_t>(std::llround(s));
    if (r <= kMaxR) {
      ++empirical[static_cast<std::size_t>(r)];
      ++inside;
    }
  }
  ASSERT_GT(inside, samples.size() * 95 / 100);
  for (double& v : empirical) v /= static_cast<double>(samples.size());

  // Compare pmfs where the exact posterior carries real mass; Monte-Carlo
  // error with 80k draws is ~ sqrt(p/80000) <~ 0.0008 per bin at p ~ 0.05.
  for (std::int64_t r = 0; r <= kMaxR; ++r) {
    const double exact = posterior[static_cast<std::size_t>(r)];
    if (exact < 1e-4) continue;
    EXPECT_NEAR(empirical[static_cast<std::size_t>(r)], exact,
                0.15 * exact + 0.0015)
        << "r=" << r;
  }
  // And the means agree tightly.
  double exact_mean = 0.0;
  for (std::int64_t r = 0; r <= kMaxR; ++r) {
    exact_mean += static_cast<double>(r) * posterior[static_cast<std::size_t>(r)];
  }
  double mcmc_mean = 0.0;
  for (const double s : samples) mcmc_mean += s;
  mcmc_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mcmc_mean, exact_mean, 0.03 * exact_mean + 0.05);
}

/// Exact Poisson-prior residual pmf on [0, max_r] from a midpoint grid over
/// the zeta box, lambda0 integrated in closed form; normalised over the
/// range.
std::vector<double> exact_poisson_residual_pmf(
    const BugCountData& data, core::DetectionModelKind kind, double lambda_max,
    const std::vector<std::vector<double>>& grid, std::int64_t max_r) {
  const auto model = core::make_detection_model(kind);
  std::vector<double> weight;
  std::vector<double> q_product;
  std::vector<double> p(data.days());
  std::vector<double> log_q(data.days());
  for (const auto& zeta : grid) {
    model->detection_into(data.days(), zeta, p, log_q);
    weight.push_back(
        std::exp(core::log_likelihood_collapsed_base(data, p, log_q)));
    double log_q_sum = 0.0;
    for (const double v : log_q) log_q_sum += v;
    q_product.push_back(std::exp(log_q_sum));
  }
  const double s_k = static_cast<double>(data.total());
  std::vector<double> pmf(static_cast<std::size_t>(max_r) + 1);
  for (std::int64_t r = 0; r <= max_r; ++r) {
    double integral = 0.0;
    for (std::size_t g = 0; g < grid.size(); ++g) {
      integral += weight[g];
      weight[g] *= q_product[g];
    }
    const double shape = s_k + static_cast<double>(r) + 1.0;
    pmf[static_cast<std::size_t>(r)] =
        std::exp(std::lgamma(shape) - std::lgamma(static_cast<double>(r) + 1.0) +
                 srm::math::log_regularized_gamma_p(shape, lambda_max)) *
        integral;
  }
  double total = 0.0;
  for (const double v : pmf) total += v;
  for (double& v : pmf) v /= total;
  return pmf;
}

/// Runs the sampler of (family, kind) under `scheme` and checks its
/// residual pmf and mean against `exact` with the per-bin tolerance of the
/// model0 case.
void expect_poisson_residual_pmf(
    core::PriorKind family, core::DetectionModelKind kind,
    const BugCountData& data, double lambda_max,
    const std::vector<double>& exact,
    core::SamplerScheme scheme = core::SamplerScheme::kCollapsed) {
  const auto max_r = static_cast<std::int64_t>(exact.size()) - 1;
  core::HyperPriorConfig config;
  config.lambda_max = lambda_max;
  config.scheme = scheme;
  const auto model = core::make_model(family, kind, data, config);
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 1000;
  gibbs.iterations = 40000;
  gibbs.seed = 1234;
  const auto run = srm::mcmc::run_gibbs(*model, gibbs);
  const auto samples = run.pooled("residual");
  std::vector<double> empirical(exact.size(), 0.0);
  std::size_t inside = 0;
  for (const double s : samples) {
    const auto r = static_cast<std::int64_t>(std::llround(s));
    if (r <= max_r) {
      ++empirical[static_cast<std::size_t>(r)];
      ++inside;
    }
  }
  ASSERT_GT(inside, samples.size() * 95 / 100);
  for (double& v : empirical) v /= static_cast<double>(samples.size());
  double exact_mean = 0.0;
  for (std::int64_t r = 0; r <= max_r; ++r) {
    const double p = exact[static_cast<std::size_t>(r)];
    exact_mean += static_cast<double>(r) * p;
    if (p < 1e-4) continue;
    EXPECT_NEAR(empirical[static_cast<std::size_t>(r)], p, 0.15 * p + 0.0015)
        << core::to_string(kind) << " " << core::to_string(scheme)
        << " r=" << r;
  }
  double mcmc_mean = 0.0;
  for (const double s : samples) mcmc_mean += s;
  mcmc_mean /= static_cast<double>(samples.size());
  EXPECT_NEAR(mcmc_mean, exact_mean, 0.03 * exact_mean + 0.05)
      << core::to_string(kind) << " " << core::to_string(scheme);
}

TEST(PosteriorExactness, ParetoGibbsMatchesClosedFormIntegration) {
  const BugCountData data("t", {2, 1, 1, 0, 1});
  const double lambda_max = 40.0;
  constexpr int kMuSteps = 20000;
  std::vector<std::vector<double>> grid;
  for (int im = 0; im < kMuSteps; ++im) grid.push_back({(im + 0.5) / kMuSteps});
  const auto exact = exact_poisson_residual_pmf(
      data, core::DetectionModelKind::kPareto, lambda_max, grid, 120);
  expect_poisson_residual_pmf(core::PriorKind::kPoisson,
                              core::DetectionModelKind::kPareto, data,
                              lambda_max, exact);
}

TEST(PosteriorExactness, WeibullGibbsMatchesClosedFormIntegration) {
  const BugCountData data("t", {2, 1, 1, 0, 1});
  const double lambda_max = 40.0;
  constexpr int kSteps = 400;
  std::vector<std::vector<double>> grid;
  for (int im = 0; im < kSteps; ++im) {
    for (int iw = 0; iw < kSteps; ++iw) {
      grid.push_back({(im + 0.5) / kSteps, (iw + 0.5) / kSteps});
    }
  }
  const auto exact = exact_poisson_residual_pmf(
      data, core::DetectionModelKind::kWeibull, lambda_max, grid, 120);
  expect_poisson_residual_pmf(core::PriorKind::kPoisson,
                              core::DetectionModelKind::kWeibull, data,
                              lambda_max, exact);
}

TEST(PosteriorExactness, SizeBiasedGibbsMatchesClosedFormIntegration) {
  // Midpoint grid over the default (shape, scale) prior box; both schemes
  // must reproduce the exact pmf.
  const BugCountData data("t", {2, 1, 1, 0, 1});
  const double lambda_max = 40.0;
  const core::DetectionModelLimits limits;
  constexpr int kSteps = 400;
  std::vector<std::vector<double>> grid;
  for (int is = 0; is < kSteps; ++is) {
    for (int ic = 0; ic < kSteps; ++ic) {
      grid.push_back({limits.sb_shape_max * (is + 0.5) / kSteps,
                      limits.sb_scale_max * (ic + 0.5) / kSteps});
    }
  }
  const auto exact = exact_poisson_residual_pmf(
      data, core::DetectionModelKind::kSizeBiasedMultinomial, lambda_max, grid,
      120);
  for (const auto scheme :
       {core::SamplerScheme::kCollapsed, core::SamplerScheme::kVanilla}) {
    expect_poisson_residual_pmf(
        core::PriorKind::kSizeBiased,
        core::DetectionModelKind::kSizeBiasedMultinomial, data, lambda_max,
        exact, scheme);
  }
}

/// Exact NB-prior residual pmf on [0, max_r], normalised over that range.
std::vector<double> exact_negbin_residual_pmf(const BugCountData& data,
                                              double alpha_max,
                                              std::int64_t max_r) {
  const auto g = [alpha_max](double n) {
    const double tail = n > 0.0 ? n * std::log((alpha_max + n) / n) : 0.0;
    return (n + 1.0) * std::log((alpha_max + n + 1.0) / (n + 1.0)) - tail;
  };
  // The mu-integral I(R) = ∫ base(mu) Q(mu)^R dmu on a midpoint grid, built
  // up over R by one multiplication per grid point.
  constexpr int kMuSteps = 20000;
  const auto model0 =
      core::make_detection_model(core::DetectionModelKind::kConstant);
  std::vector<double> weight(kMuSteps);
  std::vector<double> q_product(kMuSteps);
  for (int im = 0; im < kMuSteps; ++im) {
    const std::vector<double> zeta{(im + 0.5) / kMuSteps};
    const auto p = model0->probabilities(data.days(), zeta);
    weight[static_cast<std::size_t>(im)] =
        std::exp(core::log_likelihood_collapsed_base(data, p));
    q_product[static_cast<std::size_t>(im)] = core::survival_product(p);
  }
  const double s_k = static_cast<double>(data.total());
  std::vector<double> pmf(static_cast<std::size_t>(max_r) + 1);
  for (std::int64_t r = 0; r <= max_r; ++r) {
    double integral = 0.0;
    for (int im = 0; im < kMuSteps; ++im) {
      integral += weight[static_cast<std::size_t>(im)];
      weight[static_cast<std::size_t>(im)] *=
          q_product[static_cast<std::size_t>(im)];
    }
    const double rd = static_cast<double>(r);
    pmf[static_cast<std::size_t>(r)] =
        std::exp(std::lgamma(s_k + rd + 1.0) - std::lgamma(rd + 1.0)) *
        g(s_k + rd) * integral;
  }
  double total = 0.0;
  for (const double v : pmf) total += v;
  for (double& v : pmf) v /= total;
  return pmf;
}

TEST(PosteriorExactness, NegBinGibbsMatchesClosedFormIntegration) {
  // The NB residual posterior has a polynomial tail (about R^-3 here), so
  // pmfs are compared conditional on R <= kMaxR, through the bins that
  // carry real mass and the whole CDF.
  const BugCountData data("t", {2, 1, 1, 0, 1});
  const double alpha_max = 25.0;
  constexpr std::int64_t kMaxR = 400;
  const auto exact = exact_negbin_residual_pmf(data, alpha_max, kMaxR);

  core::HyperPriorConfig config;
  config.alpha_max = alpha_max;
  const core::BayesianSrm model(core::PriorKind::kNegativeBinomial,
                                core::DetectionModelKind::kConstant, data,
                                config);
  srm::mcmc::GibbsOptions gibbs;
  gibbs.chain_count = 2;
  gibbs.burn_in = 1000;
  gibbs.iterations = 40000;
  gibbs.seed = 1234;
  const auto run = srm::mcmc::run_gibbs(model, gibbs);
  const auto samples = run.pooled("residual");
  std::vector<double> empirical(kMaxR + 1, 0.0);
  double inside = 0.0;
  for (const double s : samples) {
    const auto r = static_cast<std::int64_t>(std::llround(s));
    if (r <= kMaxR) {
      ++empirical[static_cast<std::size_t>(r)];
      ++inside;
    }
  }
  ASSERT_GT(inside, 0.97 * static_cast<double>(samples.size()));
  for (double& v : empirical) v /= inside;

  double exact_cdf = 0.0;
  double empirical_cdf = 0.0;
  double max_cdf_gap = 0.0;
  for (std::int64_t r = 0; r <= kMaxR; ++r) {
    const double p = exact[static_cast<std::size_t>(r)];
    const double e = empirical[static_cast<std::size_t>(r)];
    if (p >= 1e-4) {
      EXPECT_NEAR(e, p, 0.15 * p + 0.0015) << "r=" << r;
    }
    exact_cdf += p;
    empirical_cdf += e;
    max_cdf_gap = std::max(max_cdf_gap, std::abs(exact_cdf - empirical_cdf));
  }
  EXPECT_LT(max_cdf_gap, 0.01);
}

}  // namespace
