// The full evaluation sweep of the paper's Section 5: 2 priors x 5
// detection models x 9 observation points, run once and projected into all
// five tables and both box-plot figures by src/report/tables.hpp. The grid
// itself comes from the model-family registry: each swept family
// contributes its selection_models columns, so registering a new family is
// all it takes to make it sweepable.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "data/bug_count_data.hpp"

namespace srm::report {

struct SweepOptions {
  std::vector<std::size_t> observation_days;
  std::int64_t eventual_total = 0;
  mcmc::GibbsOptions gibbs{};
  /// Baseline hyperprior configuration (upper limits); per-cell overrides
  /// can be installed with `set_override`.
  core::HyperPriorConfig base_config{};

  /// One per-cell hyperprior override.
  struct Override {
    core::PriorKind prior;
    core::DetectionModelKind model;
    core::HyperPriorConfig config;
  };

  void set_override(core::PriorKind prior, core::DetectionModelKind model,
                    core::HyperPriorConfig config);
  [[nodiscard]] core::HyperPriorConfig config_for(
      core::PriorKind prior, core::DetectionModelKind model) const;
  /// Installed overrides, in insertion order (for canonical serialization).
  [[nodiscard]] const std::vector<Override>& overrides() const {
    return overrides_;
  }

 private:
  std::vector<Override> overrides_;
};

/// One (prior, detection model) cell of the sweep.
struct SweepCell {
  core::PriorKind prior;
  core::DetectionModelKind model;
  core::HyperPriorConfig config;
  std::vector<core::ObservationResult> results;  ///< one per observation day
};

struct SweepResult {
  std::vector<std::size_t> observation_days;
  std::vector<SweepCell> cells;

  [[nodiscard]] const SweepCell& cell(core::PriorKind prior,
                                      core::DetectionModelKind model) const;
};

/// Where each cell of a store-backed sweep came from. cells_skipped > 0
/// marks a partial run (a budgeted or interrupted sweep): the skipped
/// result slots are left default-constructed (observation_day == 0) and
/// the SweepResult must not be projected into tables or a final artifact.
struct SweepExecution {
  std::size_t cells_total = 0;
  std::size_t cells_computed = 0;  ///< freshly sampled this run
  std::size_t cells_reused = 0;    ///< replayed from the store
  std::size_t cells_skipped = 0;   ///< left unfilled (budget exhausted)

  [[nodiscard]] bool complete() const { return cells_skipped == 0; }
};

/// Runs every (prior, model, observation day) combination. The cells are
/// independent posteriors and are scheduled on the shared srm::runtime
/// pool; the output is bit-identical for any worker count (size the pool
/// with --threads / SRM_THREADS / ThreadPool::set_global_thread_count).
///
/// With a store, every cell is planned through it (serially, in layout
/// order) before anything runs: kReuse cells are filled from the store and
/// never sampled, kSkip cells are left unfilled, and only kCompute cells
/// are scheduled on the pool (each reports back via on_computed from its
/// worker thread). Reused results splice into the same pre-sized slots the
/// sampler would have written, so a resumed sweep assembles a SweepResult
/// bit-identical to an uninterrupted one.
SweepResult run_sweep(const data::BugCountData& base,
                      const SweepOptions& options,
                      core::ObservationStore* store = nullptr,
                      SweepExecution* execution = nullptr);

/// The (prior, detection model) cell layout of a sweep: each reproduction
/// family's selection grid, in registry order. run_sweep and the artifact
/// store's directory layout both derive from this single function, so the
/// two can never disagree on cell order.
std::vector<std::pair<core::PriorKind, core::DetectionModelKind>> sweep_grid();

/// The paper's SYS1 experimental setup with laptop-scale MCMC defaults:
/// observation days {48,67,86,96,106,116,126,136,146}, eventual total 136,
/// 2 chains x (500 burn-in + 2500 retained).
SweepOptions paper_sweep_options();

}  // namespace srm::report
