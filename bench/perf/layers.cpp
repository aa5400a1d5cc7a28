// The layer probe suite behind every per-layer metric. Microprobes time one
// public entry point of a layer in a loop (median of blocks); the runtime,
// report, artifact-store and serve layers are measured through compact
// editions of the workloads that exercise them. Every probe runs in every
// traced run, whichever workload it traces, so a per-layer number means the
// same thing on every workload.
#include <cmath>
#include <cstdint>
#include <vector>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "core/detection_models.hpp"
#include "core/fit.hpp"
#include "core/model_family.hpp"
#include "data/datasets.hpp"
#include "diagnostics/ess.hpp"
#include "mcmc/gibbs.hpp"
#include "mcmc/slice.hpp"
#include "random/rng.hpp"
#include "report/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "support/math.hpp"
#include "workloads.hpp"

namespace srm_perf {

namespace core = srm::core;
namespace math = srm::math;

namespace {

/// Keeps probe results observable so the compiler cannot drop the calls.
volatile double sink = 0.0;

constexpr int kBlocks = 7;

/// Median over kBlocks of the block time divided by `per_block` (seconds
/// per operation). `block` runs one block of operations.
template <class Block>
double seconds_per_op(double per_block, Block block) {
  std::vector<double> times;
  block();  // warm-up
  for (int b = 0; b < kBlocks; ++b) {
    const auto start = Clock::now();
    block();
    times.push_back(seconds_since(start) / per_block);
  }
  return median(times);
}

/// L0: special functions, ns per call.
void probe_support(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("support.probe");
  srm::random::Rng rng(seed);
  constexpr std::size_t kCalls = 100000;
  std::vector<std::int64_t> small, large;
  std::vector<double> reals, left, right;
  for (std::size_t i = 0; i < kCalls; ++i) {
    small.push_back(static_cast<std::int64_t>(rng.uniform_index(4096)));
    large.push_back(4096 + static_cast<std::int64_t>(rng.uniform_index(200000)));
    reals.push_back(rng.uniform(0.5, 5000.0));
    left.push_back(rng.uniform(-50.0, 50.0));
    right.push_back(rng.uniform(-50.0, 50.0));
  }
  const auto per_call = static_cast<double>(kCalls);
  const auto factorials = [&](const std::vector<std::int64_t>& n) {
    return [&] {
      double acc = 0.0;
      for (const auto v : n) acc += math::log_factorial(v);
      sink = acc;
    };
  };
  out.set_layer("support.log_factorial_ns",
                seconds_per_op(per_call, factorials(small)) * 1e9, "ns");
  out.set_layer("support.log_factorial_large_ns",
                seconds_per_op(per_call, factorials(large)) * 1e9, "ns");
  out.set_layer("support.lgamma_ns", seconds_per_op(per_call, [&] {
                  double acc = 0.0;
                  for (const double x : reals) acc += math::lgamma(x);
                  sink = acc;
                }) * 1e9,
                "ns");
  out.set_layer("support.log_sum_exp_ns", seconds_per_op(per_call, [&] {
                  double acc = 0.0;
                  for (std::size_t i = 0; i < kCalls; ++i) {
                    acc += math::log_sum_exp(left[i], right[i]);
                  }
                  sink = acc;
                }) * 1e9,
                "ns");
}

/// L1: one detection-channel probe (probabilities_into + log_survivals_into
/// over `days` days) per paper model, ns.
void probe_detection(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("core.probe");
  for (const auto kind : core::all_detection_model_kinds()) {
    const auto model = core::make_detection_model(kind);
    srm::random::Rng rng(seed);
    std::vector<std::vector<double>> zetas(64);
    for (auto& zeta : zetas) {
      for (const auto& support :
           model->parameter_supports(core::DetectionModelLimits{})) {
        zeta.push_back(support.lower +
                       (support.upper - support.lower) * rng.uniform_open());
      }
    }
    for (const std::size_t days : {std::size_t{96}, std::size_t{1000}}) {
      std::vector<double> p(days), log_q(days);
      const std::size_t rounds = days < 500 ? 20 : 2;
      const double ns = seconds_per_op(
          static_cast<double>(rounds * zetas.size()), [&] {
            for (std::size_t r = 0; r < rounds; ++r) {
              for (const auto& zeta : zetas) {
                model->probabilities_into(days, zeta, p);
                model->log_survivals_into(days, zeta, log_q);
              }
            }
            sink = p.back() + log_q.back();
          }) * 1e9;
      out.set_layer((days < 500 ? "core.probe_ns." : "core.probe_ns_long.") +
                        core::to_string(kind),
                    ns, "ns");
    }
  }
}

/// L3: one Gibbs scan per selection cell on SYS1 at day 96, us.
void probe_scans(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("core.scan_probe");
  const auto sys1 = srm::data::sys1_grouped();
  const auto config = srm::report::paper_sweep_options().base_config;
  for (const auto& cell : selection_cells()) {
    const auto model = core::make_model(cell.prior, cell.model, sys1, config);
    srm::random::Rng rng(seed);
    auto state = model->initial_state(rng);
    const auto workspace = model->make_workspace();
    constexpr std::size_t kScans = 100;
    const double us = seconds_per_op(kScans, [&] {
                        for (std::size_t s = 0; s < kScans; ++s) {
                          model->update(state, rng, workspace.get());
                        }
                      }) * 1e6;
    out.set_layer("core.scan_us." + cell_name(cell), us, "us");
  }
}

/// L4: cell fits (a single full-size `cells` pass) and the share of a fit
/// that is sampling: run_gibbs with no sinks against fit_cell.
void probe_fits(const RunConfig& config, Outcome& out) {
  ScopedSpan span("core.fit_probe");
  const Outcome pass = run_cells(config, CellsParams{500, 2500, {1, 1}}, 1);
  const auto sys1 = srm::data::sys1_grouped();
  const auto options = srm::report::paper_sweep_options();
  double fit_s = 0.0;
  double sampling_s = 0.0;
  for (const auto& cell : selection_cells()) {
    const std::string name = cell_name(cell);
    out.layers["core.fit_ms." + name] = pass.layers.at("core.fit_ms." + name);
    out.layers["core.min_ess." + name] =
        pass.layers.at("core.min_ess." + name);
    fit_s += pass.layers.at("core.fit_ms." + name).value * 1e-3;

    auto gibbs = options.gibbs;
    gibbs.seed = config.seed;
    gibbs.parallel_chains = false;
    const auto model =
        core::make_model(cell.prior, cell.model, sys1, options.base_config);
    const auto start = Clock::now();
    const auto run = srm::mcmc::run_gibbs(*model, gibbs);
    sampling_s += seconds_since(start);
    sink = static_cast<double>(run.chain_count());
  }
  out.set_layer("core.sampling_frac", sampling_s / fit_s, "ratio");
}

/// L2 timing: slice draws on a standard normal, ns per draw.
void probe_slice_time(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("mcmc.slice_probe");
  srm::random::Rng rng(seed);
  const auto density = [](double x) { return -0.5 * x * x; };
  double x = 0.0;
  constexpr std::size_t kDraws = 20000;
  const double ns = seconds_per_op(kDraws, [&] {
                      for (std::size_t d = 0; d < kDraws; ++d) {
                        x = srm::mcmc::slice_sample(rng, x, density, {});
                      }
                      sink = x;
                    }) * 1e9;
  out.set_layer("mcmc.slice_ns_per_draw", ns, "ns");
}

/// Diagnostics: ESS of a 5 000-draw AR(1) chain, us per call.
void probe_ess(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("diagnostics.ess_probe");
  srm::random::Rng rng(seed);
  std::vector<double> chain(5000);
  double state = 0.0;
  for (auto& value : chain) {
    const double normal =
        std::sqrt(-2.0 * std::log(rng.uniform_open())) *
        std::cos(2.0 * 3.141592653589793 * rng.uniform());
    state = 0.9 * state + normal;
    value = state;
  }
  constexpr std::size_t kCalls = 20;
  out.set_layer("diagnostics.ess_us", seconds_per_op(kCalls, [&] {
                  double acc = 0.0;
                  for (std::size_t i = 0; i < kCalls; ++i) {
                    acc += srm::diagnostics::effective_sample_size(chain);
                  }
                  sink = acc;
                }) * 1e6,
                "us");
}

/// Artifact codec on one paper cell: hash, serialize, parse back, us.
void probe_artifact(std::uint64_t seed, Outcome& out) {
  ScopedSpan span("artifact.probe");
  const auto sys1 = srm::data::sys1_grouped();
  const auto options = srm::report::paper_sweep_options();
  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kPoisson;
  spec.model = core::DetectionModelKind::kLogLogistic;
  spec.config = options.base_config;
  spec.gibbs = options.gibbs;
  spec.gibbs.seed = seed;
  spec.gibbs.parallel_chains = false;
  spec.observation_days = {srm::data::kSys1TestingDays};
  spec.eventual_total = options.eventual_total;
  core::FitRequest request;
  request.prior = spec.prior;
  request.model = spec.model;
  request.config = spec.config;
  request.gibbs = spec.gibbs;
  request.observation_day = srm::data::kSys1TestingDays;
  request.eventual_total = spec.eventual_total;
  const auto result = core::fit_cell(sys1, request);
  const std::string text = srm::artifact::to_json(result).dump();

  constexpr std::size_t kCalls = 20;
  out.set_layer("artifact.cell_hash_us", seconds_per_op(kCalls, [&] {
                  for (std::size_t i = 0; i < kCalls; ++i) {
                    sink = static_cast<double>(
                        srm::artifact::cell_hash(sys1, spec,
                                                 request.observation_day)
                            .size());
                  }
                }) * 1e6,
                "us");
  out.set_layer("artifact.to_json_us", seconds_per_op(kCalls, [&] {
                  for (std::size_t i = 0; i < kCalls; ++i) {
                    sink = static_cast<double>(
                        srm::artifact::to_json(result).dump().size());
                  }
                }) * 1e6,
                "us");
  out.set_layer("artifact.from_json_us", seconds_per_op(kCalls, [&] {
                  for (std::size_t i = 0; i < kCalls; ++i) {
                    sink = srm::artifact::observation_result_from_json(
                               Json::parse(text))
                               .posterior.summary.mean;
                  }
                }) * 1e6,
                "us");
}

/// L5: a compact paper sweep (2 x (50 + 250)) at 1 worker and at 3 workers,
/// each with the helping caller: scaling efficiency, tail and throughput.
void probe_sweep(const RunConfig& config, Outcome& out) {
  ScopedSpan span("report.sweep_probe");
  RunConfig compact = config;
  compact.reference_path.clear();
  const Outcome two = run_paper_sweep(compact, SweepParams{50, 250, 1, {1, 1}}, 1);
  const Outcome four =
      run_paper_sweep(compact, SweepParams{50, 250, 3, {1, 1}}, 1);
  out.set_layer("runtime.scaling_efficiency",
                (two.metrics.at("wall_s").value * 2.0) /
                    (four.metrics.at("wall_s").value * 4.0),
                "ratio");
  out.layers["report.sweep_tail_s"] = four.layers.at("report.sweep_tail_s");
  out.layers["report.cells_per_s"] = four.layers.at("report.cells_per_s");
}

/// Compact triage: one round over one project per series length.
void probe_triage(const RunConfig& config, Outcome& out) {
  ScopedSpan span("bench.triage_probe");
  const Outcome round = run_triage(
      config,
      TriageParams{{{30, 40}, {90, 400}, {180, 4000}, {365, 12000}},
                   100,
                   400,
                   {1, 1}},
      1);
  out.layers["artifact.store_bytes"] = round.layers.at("artifact.store_bytes");
  out.layers["data.simulate_ms"] = round.layers.at("data.simulate_ms");
  out.violations.insert(out.violations.end(), round.violations.begin(),
                        round.violations.end());
}

/// L6: a compact dashboard (4 s of arrivals, 16-entry LRU so the disk tier
/// serves too).
void probe_serve(const RunConfig& config, Outcome& out) {
  ScopedSpan span("bench.serve_probe");
  DashboardParams params;
  params.seconds = 4.0;
  params.cache_capacity = 16;
  const Outcome served = run_dashboard(config, params, 1);
  for (const auto& [name, metric] : served.layers) out.layers[name] = metric;
  out.violations.insert(out.violations.end(), served.violations.begin(),
                        served.violations.end());
}

}  // namespace

void probe_slice_counts(std::uint64_t seed, Outcome& out) {
  // Evaluation counts of the benchmark's own closures: a log-concave target
  // (standard normal) and a heavy-tailed one (standard Cauchy).
  constexpr std::size_t kDraws = 20000;
  const auto count = [&](auto log_density) {
    srm::random::Rng rng(seed);
    std::size_t evaluations = 0;
    const auto counted = [&](double x) {
      ++evaluations;
      return log_density(x);
    };
    double x = 0.0;
    for (std::size_t d = 0; d < kDraws; ++d) {
      x = srm::mcmc::slice_sample(rng, x, counted, {});
    }
    return static_cast<double>(evaluations) / static_cast<double>(kDraws);
  };
  const double logconcave = count([](double x) { return -0.5 * x * x; });
  const double heavytail = count([](double x) { return -std::log1p(x * x); });
  out.counts["mcmc.slice_evals_per_draw.logconcave"] = logconcave;
  out.counts["mcmc.slice_evals_per_draw.heavytail"] = heavytail;
  out.set_layer("mcmc.slice_evals_per_draw.logconcave", logconcave, "count");
  out.set_layer("mcmc.slice_evals_per_draw.heavytail", heavytail, "count");
}

Outcome run_layer_probes(const RunConfig& config) {
  Outcome out;
  srm::runtime::ThreadPool::set_global_thread_count(1);
  probe_support(config.seed, out);
  probe_detection(config.seed, out);
  probe_slice_counts(config.seed, out);
  probe_slice_time(config.seed, out);
  probe_ess(config.seed, out);
  probe_scans(config.seed, out);
  probe_artifact(config.seed, out);
  probe_fits(config, out);
  probe_sweep(config, out);
  probe_triage(config, out);
  probe_serve(config, out);
  return out;
}

}  // namespace srm_perf
