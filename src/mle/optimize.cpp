#include "mle/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace srm::mle {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

OptimizeResult nelder_mead(const Objective& objective,
                           std::span<const double> start,
                           std::span<const double> lower,
                           std::span<const double> upper,
                           const NelderMeadOptions& options) {
  const std::size_t n = start.size();
  SRM_EXPECTS(n >= 1, "nelder_mead requires at least one dimension");
  SRM_EXPECTS(lower.size() == n && upper.size() == n,
              "bounds must match the dimension");
  for (std::size_t i = 0; i < n; ++i) {
    SRM_EXPECTS(lower[i] < upper[i], "bounds must satisfy lower < upper");
    SRM_EXPECTS(start[i] > lower[i] && start[i] < upper[i],
                "start must be strictly feasible");
  }

  auto clamp_to_box = [&](std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) {
      const double margin = 1e-12 * (upper[i] - lower[i]);
      x[i] = std::clamp(x[i], lower[i] + margin, upper[i] - margin);
    }
  };

  // Build the initial simplex: start plus one vertex per dimension.
  std::vector<std::vector<double>> simplex;
  simplex.emplace_back(start.begin(), start.end());
  for (std::size_t i = 0; i < n; ++i) {
    auto vertex = simplex.front();
    const double step = options.initial_step * (upper[i] - lower[i]);
    vertex[i] += (vertex[i] + step < upper[i]) ? step : -step;
    clamp_to_box(vertex);
    simplex.push_back(std::move(vertex));
  }
  std::vector<double> values(simplex.size());
  for (std::size_t v = 0; v < simplex.size(); ++v) {
    values[v] = objective(simplex[v]);
  }

  OptimizeResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    // Order vertices: best (largest value) first.
    std::vector<std::size_t> order(simplex.size());
    for (std::size_t v = 0; v < order.size(); ++v) order[v] = v;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return values[a] > values[b]; });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[order.size() - 2];

    result.iterations = iter + 1;
    if (std::isfinite(values[best]) && std::isfinite(values[worst]) &&
        values[best] - values[worst] < options.tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (const std::size_t v : order) {
      if (v == worst) continue;
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v][i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto blend = [&](double t) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = centroid[i] + t * (centroid[i] - simplex[worst][i]);
      }
      clamp_to_box(x);
      return x;
    };

    const auto reflected = blend(1.0);
    const double f_reflected = objective(reflected);
    if (f_reflected > values[best]) {
      const auto expanded = blend(2.0);
      const double f_expanded = objective(expanded);
      if (f_expanded > f_reflected) {
        simplex[worst] = expanded;
        values[worst] = f_expanded;
      } else {
        simplex[worst] = reflected;
        values[worst] = f_reflected;
      }
      continue;
    }
    if (f_reflected > values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = f_reflected;
      continue;
    }
    const auto contracted = blend(-0.5);
    const double f_contracted = objective(contracted);
    if (f_contracted > values[worst]) {
      simplex[worst] = contracted;
      values[worst] = f_contracted;
      continue;
    }
    // Shrink toward the best vertex.
    for (const std::size_t v : order) {
      if (v == best) continue;
      for (std::size_t i = 0; i < n; ++i) {
        simplex[v][i] = 0.5 * (simplex[v][i] + simplex[best][i]);
      }
      clamp_to_box(simplex[v]);
      values[v] = objective(simplex[v]);
    }
  }

  const auto best_it = std::max_element(values.begin(), values.end());
  result.value = *best_it;
  result.argmax =
      simplex[static_cast<std::size_t>(best_it - values.begin())];
  return result;
}

}  // namespace srm::mle
