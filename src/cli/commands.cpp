#include "cli/commands.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <ostream>
#include <sstream>

#include "artifact/serialize.hpp"
#include "artifact/store.hpp"
#include "core/experiment.hpp"
#include "core/fit.hpp"
#include "core/loo.hpp"
#include "core/model_averaging.hpp"
#include "core/streaming.hpp"
#include "core/release_policy.hpp"
#include "core/predictive.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "mle/mle_fit.hpp"
#include "nhpp/nhpp_fit.hpp"
#include "report/sweep.hpp"
#include "report/tables.hpp"
#include "runtime/thread_pool.hpp"
#include "support/csv.hpp"
#include "support/error.hpp"
#include "support/format.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace srm::cli {

namespace {

data::BugCountData load_dataset(const Args& args,
                                const std::string& fallback = "") {
  const std::string source = fallback.empty()
                                 ? args.require_string("csv")
                                 : args.get_string("csv", fallback);
  data::BugCountData data = [&] {
    if (source == "sys1") return data::sys1_grouped();
    if (source == "ntds") return data::ntds_grouped();
    return data::BugCountData::from_csv_file(source);
  }();
  // --days truncates inside the series and zero-pads (virtual testing)
  // beyond it.
  if (args.has("days")) {
    const auto days = args.get_size("days", 0);
    SRM_EXPECTS(days >= 1, "flag --days expects at least 1 day, got 0");
    data = core::dataset_at_observation(data, days);
  }
  return data;
}

core::PriorKind parse_prior(const Args& args) {
  const std::string prior = args.get_string("prior", "poisson");
  if (const auto* entry = core::find_family(prior)) return entry->kind;
  throw InvalidArgument("unknown --prior '" + prior + "' (use " +
                        core::family_ids_joined() + ")");
}

/// "model0|model1|...": the accepted --model values, straight from the
/// detection-model registry so this text can never drift from the enum.
std::string model_names_joined() {
  std::string joined;
  for (const auto& name : core::detection_model_names()) {
    if (!joined.empty()) joined += '|';
    joined += name;
  }
  return joined;
}

core::DetectionModelKind parse_model_name(const Args& args,
                                          const std::string& fallback) {
  const std::string name = args.get_string("model", fallback);
  if (const auto kind = core::detection_model_from_string(name)) return *kind;
  throw InvalidArgument("unknown --model '" + name + "' (use " +
                        model_names_joined() + ")");
}

/// Family-aware --model: the historical CLI default is model1 where the
/// family accepts it; otherwise the family's registry default (e.g. the
/// size-biased family's single multinomial likelihood). The parsed kind is
/// validated against the family's accepted set, so a mismatch produces the
/// registry's structured error listing the family's own model names.
core::DetectionModelKind parse_model(const Args& args,
                                     core::PriorKind prior) {
  const auto& entry = core::family(prior);
  std::string fallback = "model1";
  const auto historical = core::detection_model_from_string(fallback);
  if (!historical ||
      std::find(entry.accepted_models.begin(), entry.accepted_models.end(),
                *historical) == entry.accepted_models.end()) {
    fallback = core::to_string(entry.default_model);
  }
  const auto kind = parse_model_name(args, fallback);
  core::validate_family_model(prior, kind);
  return kind;
}

/// The sampler flags (--chains, --burn-in, --iterations, --thin, --seed)
/// over `gibbs`, which holds the command's defaults: the paper's budget
/// unless the command has its own.
mcmc::GibbsOptions parse_gibbs(
    const Args& args,
    mcmc::GibbsOptions gibbs = report::paper_sweep_options().gibbs) {
  gibbs.chain_count = args.get_size("chains", gibbs.chain_count);
  gibbs.burn_in = args.get_size("burn-in", gibbs.burn_in);
  gibbs.iterations = args.get_size("iterations", gibbs.iterations);
  gibbs.thin = args.get_size("thin", gibbs.thin);
  gibbs.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(gibbs.seed)));
  return gibbs;
}

// --threads N sizes the shared execution pool every parallel stage runs on
// (MCMC chains, sweep cells, WAIC/LOO scoring). 0 = all hardware threads
// (or the SRM_THREADS environment override). Results are bit-identical for
// any value; the flag only changes wall-clock time.
void configure_runtime(const Args& args) {
  if (!args.has("threads")) return;
  runtime::ThreadPool::set_global_thread_count(args.get_size("threads", 0));
}

/// The hyperprior flags (--lambda-max, --alpha-max, --theta-max,
/// --jeffreys) over `config`, which holds the command's defaults.
core::HyperPriorConfig parse_config(const Args& args,
                                    core::HyperPriorConfig config = {}) {
  config.lambda_max = args.get_double("lambda-max", config.lambda_max);
  config.alpha_max = args.get_double("alpha-max", config.alpha_max);
  config.limits.theta_max =
      args.get_double("theta-max", config.limits.theta_max);
  if (args.has("jeffreys")) config.jeffreys_lambda0 = true;
  return config;
}

void reject_unused(const Args& args) {
  const auto unused = args.unused();
  if (!unused.empty()) {
    throw InvalidArgument("unknown flag --" + unused.front());
  }
}

/// "48,67,86" -> {48, 67, 86}.
std::vector<std::size_t> parse_day_list(const std::string& text) {
  std::vector<std::size_t> days;
  std::size_t start = 0;
  while (true) {
    const auto comma = text.find(',', start);
    const auto length =
        comma == std::string::npos ? text.size() - start : comma - start;
    const auto value = support::parse_count(text.substr(start, length));
    SRM_EXPECTS(value > 0, "--obs-days entries must be positive");
    days.push_back(static_cast<std::size_t>(value));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return days;
}

}  // namespace

int run_fit(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  core::FitRequest request;
  request.prior = parse_prior(args);
  request.model = parse_model(args, request.prior);
  request.config = parse_config(args);
  request.gibbs = parse_gibbs(args);
  request.observation_day = data.days();
  request.eventual_total = data.total();
  const std::string format = args.get_string("format", "table");
  SRM_EXPECTS(format == "table" || format == "json",
              "unknown --format '" + format + "' (use table|json)");
  reject_unused(args);

  const auto result = core::fit_cell(data, request);
  if (format == "json") {
    support::Json json = support::Json::Object{};
    json.set("dataset", data.name());
    json.set("prior", core::to_string(request.prior));
    json.set("model", core::to_string(request.model));
    json.set("result", artifact::to_json(result));
    out << json.dump(2);
    return 0;
  }
  out << "dataset: " << data.name() << " (" << data.total() << " bugs / "
      << data.days() << " days)\n";
  out << "model: " << core::to_string(request.prior) << " prior, "
      << core::to_string(request.model) << "\n\n";
  const auto& s = result.posterior.summary;
  out << "residual bug posterior:\n";
  out << "  mean   " << support::format_double(s.mean, 3) << '\n';
  out << "  median " << s.median << '\n';
  out << "  mode   " << s.mode << '\n';
  out << "  sd     " << support::format_double(s.sd, 3) << '\n';
  out << "\nWAIC " << support::format_double(result.waic.waic, 3) << "\n\n";
  support::Table t;
  t.set_header({"parameter", "mean", "PSRF", "Geweke Z", "ESS"});
  for (const auto& diag : result.diagnostics) {
    t.add_row({diag.name, support::format_double(diag.posterior_mean, 4),
               support::format_double(diag.psrf, 3),
               support::format_double(diag.geweke_z, 3),
               support::format_double(diag.ess, 0)});
  }
  out << t.render();
  return 0;
}

int run_select(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  const auto gibbs = parse_gibbs(args);
  const auto config = parse_config(args);
  const std::string format = args.get_string("format", "table");
  SRM_EXPECTS(format == "table" || format == "json",
              "unknown --format '" + format + "' (use table|json)");
  reject_unused(args);
  // The serve select op runs every grid cell through fit_cell; refuse what
  // it refuses, before sampling the first cell.
  core::require_fit_draws(gibbs);

  struct Row {
    std::string prior;
    std::string model;
    core::WaicResult waic;
    double looic;
    core::ResidualPosterior posterior;
    double weight;
  };
  std::vector<Row> rows;
  // The selection grid is the registry: every family's selection_models
  // columns, in registration order.
  for (const auto& entry : core::model_families().families()) {
    for (const auto kind : entry.selection_models) {
      const auto model = core::make_model(entry.kind, kind, data, config);
      // PSIS-LOO needs the raw pointwise columns for its tail fits, so the
      // scorer keeps the flat matrix; the draws themselves are never
      // stored.
      core::StreamingScorer scorer(*model, gibbs.chain_count,
                                   gibbs.iterations, /*keep_matrix=*/true);
      core::ResidualAccumulator residual(model->residual_index(),
                                         gibbs.chain_count, gibbs.iterations);
      const std::array<mcmc::PosteriorAccumulator*, 2> sinks{&scorer,
                                                             &residual};
      mcmc::run_gibbs(*model, gibbs, sinks);
      const auto loo =
          core::compute_psis_loo_from_matrix(scorer.log_likelihood_matrix());
      rows.push_back({entry.id, core::to_string(kind), scorer.waic(),
                      loo.looic, residual.finalize(), 0.0});
    }
  }
  // Pseudo-BMA weights over the whole grid (computed in grid order, before
  // ranking reorders the rows) and the weighted mixture posterior.
  std::vector<core::AveragingCandidate> candidates;
  candidates.reserve(rows.size());
  for (const auto& row : rows) {
    candidates.push_back({row.prior + "/" + row.model, row.waic,
                          row.posterior});
  }
  const auto averaged = core::average_models(candidates);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r].weight = averaged.weights[r].weight;
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.waic.waic < b.waic.waic;
  });
  if (format == "json") {
    support::Json ranking = support::Json::Array{};
    for (const auto& row : rows) {
      support::Json entry = support::Json::Object{};
      entry.set("prior", row.prior);
      entry.set("model", row.model);
      entry.set("waic", row.waic.waic);
      entry.set("looic", row.looic);
      entry.set("residual_mean", row.posterior.summary.mean);
      entry.set("pseudo_bma_weight", row.weight);
      ranking.push_back(std::move(entry));
    }
    support::Json json = support::Json::Object{};
    json.set("ranking", std::move(ranking));
    support::Json mixture = support::Json::Object{};
    mixture.set("residual_mean", averaged.summary.mean);
    mixture.set("residual_sd", averaged.summary.sd);
    json.set("pseudo_bma", std::move(mixture));
    out << json.dump(2);
    return 0;
  }
  support::Table t("model ranking (by WAIC; smaller is better)");
  t.set_header({"rank", "prior", "model", "WAIC", "looic", "residual mean",
                "pBMA weight"});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    t.add_row({support::dec(r + 1), rows[r].prior, rows[r].model,
               support::format_double(rows[r].waic.waic, 3),
               support::format_double(rows[r].looic, 3),
               support::format_double(rows[r].posterior.summary.mean, 2),
               support::format_double(rows[r].weight, 3)});
  }
  out << t.render();
  out << "pseudo-BMA averaged residual: mean "
      << support::format_double(averaged.summary.mean, 2) << ", sd "
      << support::format_double(averaged.summary.sd, 2) << '\n';
  return 0;
}

int run_predict(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  const auto fit_days = args.get_size("fit-days", 0);
  SRM_EXPECTS(fit_days >= 1 && fit_days < data.days(),
              "--fit-days must be a strict prefix of the series");
  const auto prior = parse_prior(args);
  const auto model = parse_model(args, prior);
  const auto config = parse_config(args);
  const auto gibbs = parse_gibbs(args);
  reject_unused(args);

  const auto summary = core::fit_and_score_holdout(data, fit_days, prior,
                                                   model, config, gibbs);
  out << "fit on days 1.." << fit_days << ", scored on days "
      << (fit_days + 1) << ".." << data.days() << "\n";
  out << "log predictive score "
      << support::format_double(summary.log_score, 3) << '\n';
  out << "E[count on day " << (fit_days + 1) << "] "
      << support::format_double(summary.mean_next_count, 3) << '\n';
  out << "E[cumulative at day " << data.days() << "] "
      << support::format_double(summary.predicted_cumulative.back(), 1)
      << " (actual " << data.total() << ")\n";
  return 0;
}

int run_mle(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  reject_unused(args);
  out << "dataset: " << data.name() << " (" << data.total() << " bugs / "
      << data.days() << " days)\n";
  const auto fits = mle::fit_all_models(data);
  support::Table t("discrete profile MLE (sorted by AIC)");
  t.set_header({"model", "logL", "AIC", "BIC", "N-hat", "residual"});
  for (const auto& fit : fits) {
    const bool diverged = fit.diverged(data);
    t.add_row({core::to_string(fit.model),
               support::format_double(fit.log_likelihood, 3),
               support::format_double(fit.aic, 3),
               support::format_double(fit.bic, 3),
               diverged ? "unbounded" : support::dec(fit.initial_bugs),
               diverged ? "unbounded" : support::dec(fit.residual(data))});
  }
  out << t.render();
  return 0;
}

int run_nhpp(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  reject_unused(args);
  out << "dataset: " << data.name() << " (" << data.total() << " bugs / "
      << data.days() << " days)\n";
  const auto fits = nhpp::fit_all_nhpp_models(data);
  support::Table t("continuous NHPP MLE (sorted by AIC)");
  t.set_header({"model", "logL", "AIC", "a-hat", "residual", "R(1 day)"});
  for (const auto& fit : fits) {
    const double residual = fit.expected_residual(data);
    t.add_row({nhpp::to_string(fit.model),
               support::format_double(fit.log_likelihood, 3),
               support::format_double(fit.aic, 3),
               support::format_double(fit.a, 2),
               std::isinf(residual) ? "inf"
                                    : support::format_double(residual, 2),
               support::format_double(fit.reliability_after(data, 1.0), 4)});
  }
  out << t.render();
  return 0;
}

int run_simulate(const Args& args, std::ostream& out) {
  const auto bugs = args.get_int("bugs", 100);
  const auto days = args.get_size("days", 50);
  const auto kind = parse_model_name(args, "model0");
  const auto detector = core::make_detection_model(kind);

  std::vector<double> zeta;
  core::DetectionModelLimits limits;
  for (const auto& support : detector->parameter_supports(limits)) {
    SRM_EXPECTS(args.has(support.name),
                "simulate with " + core::to_string(kind) + " requires --" +
                    support.name);
    zeta.push_back(args.get_double(support.name, 0.0));
  }
  random::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const std::string out_path = args.get_string("out", "");
  reject_unused(args);

  const auto data = data::simulate_detection_process(
      bugs, days,
      [&](std::size_t day) { return detector->probability(day, zeta); }, rng,
      "simulated");
  out << "simulated " << data.total() << " of " << bugs << " bugs over "
      << days << " days (" << core::to_string(kind) << ")\n";
  support::CsvRows rows{{"day", "count"}};
  for (std::size_t day = 1; day <= days; ++day) {
    rows.push_back(
        {support::dec(day), support::dec(data.count_on_day(day))});
  }
  if (out_path.empty()) {
    std::ostringstream csv;
    support::write_csv(csv, rows);
    out << csv.str();
  } else {
    support::write_csv_file(out_path, rows);
    out << "written to " << out_path << '\n';
  }
  return 0;
}

int run_release(const Args& args, std::ostream& out) {
  const auto data = load_dataset(args);
  const auto prior = parse_prior(args);
  const auto kind = parse_model(args, prior);
  const auto config = parse_config(args);
  const auto gibbs = parse_gibbs(args);
  core::ReleaseCosts costs;
  costs.cost_per_testing_day = args.get_double("day-cost", 1.0);
  costs.cost_per_residual_bug = args.get_double("bug-cost", 50.0);
  const auto horizon = args.get_size("horizon", 60);
  SRM_EXPECTS(horizon >= 1, "flag --horizon expects at least 1 day, got 0");
  reject_unused(args);

  const auto model = core::make_model(prior, kind, data, config);
  const auto run = mcmc::run_gibbs(*model, gibbs);
  const auto posterior = core::summarize_residual_posterior(run);
  const auto [lo, hi] = posterior.credible_interval(0.95);
  out << "residual bugs today (day " << data.days() << "): mean "
      << support::format_double(posterior.summary.mean, 2) << ", 95% CI ["
      << lo << ", " << hi << "]\n";

  const auto plan = core::plan_release(*model, run, horizon, costs);
  support::Table t("release schedule");
  t.set_header({"day", "E[residual]", "E[cost]"});
  for (const auto& decision : plan.schedule) {
    t.add_row({support::dec(decision.day),
               support::format_double(decision.expected_residual, 2),
               support::format_double(decision.expected_cost, 2)});
  }
  out << t.render();
  out << "optimal release: day " << plan.best.day << " (expected cost "
      << support::format_double(plan.best.expected_cost, 2) << ")\n";
  return 0;
}

int run_sweep(const Args& args, std::ostream& out) {
  const std::string source = args.get_string("csv", "sys1");
  const auto data = load_dataset(args, "sys1");
  auto options = report::paper_sweep_options();
  if (source != "sys1") {
    // The paper's observation grid and eventual total are SYS1-specific;
    // for another dataset default to a single observation at the end of
    // the series (override with --obs-days / --total).
    options.observation_days = {data.days()};
    options.eventual_total = data.total();
  }
  if (args.has("smoke")) {
    // CI-scale settings: same grid shape, two observation points and a
    // short chain per cell.
    options.gibbs.burn_in = 50;
    options.gibbs.iterations = 200;
    if (source == "sys1") options.observation_days = {48, 146};
  }
  if (args.has("obs-days")) {
    options.observation_days = parse_day_list(args.require_string("obs-days"));
  }
  options.eventual_total = args.get_int("total", options.eventual_total);
  options.gibbs = parse_gibbs(args, options.gibbs);
  options.base_config = parse_config(args, options.base_config);

  const std::string out_dir = args.get_string("out", "");
  const bool resume = args.has("resume");
  const auto max_cells = args.get_size("max-cells", 0);
  const std::string format = args.get_string("format", "table");
  SRM_EXPECTS(format == "table" || format == "json" || format == "csv",
              "unknown --format '" + format + "' (use table|json|csv)");
  SRM_EXPECTS(!out_dir.empty() || (!resume && max_cells == 0),
              "--resume and --max-cells require --out DIR");
  reject_unused(args);

  std::optional<artifact::ArtifactStore> store;
  if (!out_dir.empty()) {
    store.emplace(out_dir, data, options, resume);
    store->set_max_fresh_cells(max_cells);
  }
  report::SweepExecution exec;
  const auto sweep =
      report::run_sweep(data, options, store ? &*store : nullptr, &exec);
  if (store) store->record_run(exec);
  if (!exec.complete()) {
    out << "partial sweep: " << (exec.cells_computed + exec.cells_reused)
        << "/" << exec.cells_total << " cells done (" << exec.cells_computed
        << " sampled this run, " << exec.cells_reused << " reused, "
        << exec.cells_skipped
        << " skipped); rerun with --resume to continue\n";
    return 3;
  }
  if (store) store->finalize(sweep);

  if (format == "json") {
    out << artifact::to_json(sweep).dump(2);
  } else if (format == "csv") {
    support::write_csv(out, report::sweep_csv_rows(sweep));
  } else {
    out << report::render_waic_table(sweep);
    out << report::render_posterior_table(sweep,
                                          report::PosteriorStatistic::kMean);
    out << report::render_posterior_table(sweep,
                                          report::PosteriorStatistic::kMedian);
    out << report::render_posterior_table(sweep,
                                          report::PosteriorStatistic::kMode);
    out << report::render_posterior_table(sweep,
                                          report::PosteriorStatistic::kStdDev);
  }
  return 0;
}

int run_families(const Args& args, std::ostream& out) {
  const std::string format = args.get_string("format", "table");
  SRM_EXPECTS(format == "table" || format == "markdown",
              "unknown --format '" + format + "' (use table|markdown)");
  reject_unused(args);
  if (format == "markdown") {
    // The exact table embedded in README.md; a docs test pins the README
    // copy to this output so the two can never drift.
    out << core::render_family_table_markdown();
    return 0;
  }
  support::Table t("registered model families");
  t.set_header({"id", "family", "models", "hyper-parameters"});
  for (const auto& entry : core::model_families().families()) {
    std::string models;
    for (const auto kind : entry.accepted_models) {
      if (!models.empty()) models += ' ';
      models += core::to_string(kind);
    }
    std::string hyper;
    for (const auto& name : entry.hyper_parameter_names) {
      if (!hyper.empty()) hyper += ' ';
      hyper += name;
    }
    t.add_row({entry.id, entry.display_name, models, hyper});
  }
  out << t.render();
  return 0;
}

std::string usage() {
  // The family list and per-family summaries come from the registry, so a
  // newly registered family shows up here without touching this text.
  std::string families_help;
  for (const auto& entry : core::model_families().families()) {
    families_help += "  " + entry.id;
    families_help.append(entry.id.size() < 12 ? 12 - entry.id.size() : 1, ' ');
    families_help += entry.summary + "\n";
  }
  return
      "usage: srm_cli <command> [--flags]\n"
      "commands:\n"
      "  fit       fit one Bayesian SRM and print the residual-bug posterior\n"
      "  select    rank every family's prior/model grid by WAIC and\n"
      "            PSIS-LOO, with pseudo-BMA weights and the averaged\n"
      "            residual posterior\n"
      "  predict   fit on a prefix and score the held-out future counts\n"
      "  mle       discrete profile maximum likelihood baseline (AIC/BIC)\n"
      "  nhpp      continuous-time NHPP maximum likelihood baseline\n"
      "  simulate  generate bug-count data from a detection model\n"
      "  release   cost-optimal release day from the residual posterior\n"
      "  families  list the registered model families (--format markdown\n"
      "            emits the README model table)\n"
      "  sweep     full prior x model x observation-day grid (paper tables);\n"
      "            --out DIR persists spec-hashed artifacts, --resume skips\n"
      "            completed cells, --format table|json|csv, --smoke for a\n"
      "            CI-scale grid, --max-cells N caps fresh cells (exit 3\n"
      "            marks a partial run), --obs-days D1,D2,..., --total N\n"
      "  serve     long-running estimation service: one JSON request per\n"
      "            line on stdin (or --socket PATH), cached posteriors\n"
      "            (--store DIR, --cache-size N), fit/predict/release/\n"
      "            select/stats/shutdown ops (see src/serve/protocol.hpp)\n"
      "model families (--prior " + core::family_ids_joined() + "):\n" +
      families_help +
      "common flags: --csv FILE|sys1|ntds, --days N,\n"
      "  --model " + model_names_joined() +
      ", --chains, --burn-in, --iterations, --seed,\n"
      "  --thin N        keep every N-th retained scan (default 1)\n"
      "  --lambda-max, --alpha-max, --theta-max, --jeffreys,\n"
      "  --threads N  worker threads for chains/sweeps/scoring\n"
      "               (0 = all hardware threads; SRM_THREADS env also works;\n"
      "               results are identical for every N)\n";
}

int dispatch(const std::string& command,
             const std::vector<std::string>& flags, std::ostream& out,
             std::ostream& err) {
  try {
    const auto args = Args::parse(flags);
    configure_runtime(args);
    if (command == "fit") return run_fit(args, out);
    if (command == "select") return run_select(args, out);
    if (command == "predict") return run_predict(args, out);
    if (command == "mle") return run_mle(args, out);
    if (command == "nhpp") return run_nhpp(args, out);
    if (command == "simulate") return run_simulate(args, out);
    if (command == "release") return run_release(args, out);
    if (command == "families") return run_families(args, out);
    if (command == "sweep") return run_sweep(args, out);
    err << "unknown command '" << command << "'\n" << usage();
    return 1;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return 2;
  }
}

}  // namespace srm::cli
