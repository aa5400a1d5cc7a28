// The four workloads, parameterised by size so the same code runs the
// measured run, --smoke, and the compact editions the layer probe suite
// uses. Private to srm_perf.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "perf.hpp"

namespace srm_perf {

/// One (family, detection model) cell of the registry's selection grid.
struct CellKey {
  srm::core::PriorKind prior;
  srm::core::DetectionModelKind model;
};

/// Every registered family's selection models, in registry order — the 11
/// cells of `cells` and of a serve `select` — or, with `paper_only`, the
/// reproduction families' 10 (the paper's grid).
std::vector<CellKey> selection_cells(bool paper_only = false);

/// "poisson.model0", "sizebiased.multinomial".
std::string cell_name(const CellKey& cell);

/// Minimum ESS over a result's monitored parameters.
double min_ess(const srm::core::ObservationResult& result);

/// Units (passes, repetitions, rounds) one run measures: at least `min`,
/// at most `max`, and no unit that would push past the time budget.
struct UnitBudget {
  std::size_t min = 2;
  std::size_t max = 1000;
};

struct CellsParams {
  std::size_t burn_in = 500;
  std::size_t iterations = 2500;
  UnitBudget passes{};
};

struct SweepParams {
  std::size_t burn_in = 500;
  std::size_t iterations = 2500;
  std::size_t workers = 3;  ///< pool workers; the calling thread helps
  UnitBudget reps{};
};

struct TriageParams {
  /// (series length in days, eventual bug total) per synthetic project.
  std::vector<std::pair<std::size_t, std::int64_t>> projects;
  std::size_t burn_in = 100;
  std::size_t iterations = 400;
  UnitBudget rounds{};
};

struct DashboardParams {
  double seconds = 20.0;            ///< arrival-schedule length
  std::size_t cache_capacity = 64;  ///< LRU entries over the disk store
  std::size_t burn_in = 100;
  std::size_t iterations = 400;
};

/// Setup repetitions per run (setup_s is their median).
inline constexpr int kSetupRepeats = 7;

Outcome run_cells(const RunConfig& config, const CellsParams& params,
                  int setup_repeats);
Outcome run_paper_sweep(const RunConfig& config, const SweepParams& params,
                        int setup_repeats);
Outcome run_triage(const RunConfig& config, const TriageParams& params,
                   int setup_repeats);
Outcome run_dashboard(const RunConfig& config, const DashboardParams& params,
                      int setup_repeats);

/// The full-size triage fleet: lengths {30, 90, 180, 365} x eventual
/// totals {40, 400, 4000, 12000}.
std::vector<std::pair<std::size_t, std::int64_t>> triage_fleet();

/// Slice-sampler evaluation counts (deterministic at a seed): fills
/// mcmc.slice_evals_per_draw.* in `out.layers` and `out.counts`.
void probe_slice_counts(std::uint64_t seed, Outcome& out);

}  // namespace srm_perf
