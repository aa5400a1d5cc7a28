// Effective sample size via Geyer's initial positive sequence estimator —
// the standard MCMC efficiency measure, reported alongside the paper's two
// convergence diagnostics.
#pragma once

#include <span>

namespace srm::diagnostics {

/// ESS = n / (1 + 2 * sum of monotone initial-positive-sequence
/// autocorrelations). Returns n for a white-noise chain, much less for a
/// sticky one; clamped to [1, n].
double effective_sample_size(std::span<const double> chain);

}  // namespace srm::diagnostics
