// The four srm_perf workloads. Each builds its inputs from the seed (set-up,
// repeated and timed), then measures whole units of work — passes,
// repetitions, rounds or an arrival schedule — for the run's time budget,
// and checks every output it receives.
#include "workloads.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "artifact/serialize.hpp"
#include "core/fit.hpp"
#include "core/model_family.hpp"
#include "data/datasets.hpp"
#include "data/generator.hpp"
#include "random/rng.hpp"
#include "report/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/service.hpp"
#include "serve/socket.hpp"

namespace srm_perf {

namespace fs = std::filesystem;
namespace core = srm::core;
namespace data = srm::data;
namespace report = srm::report;
using srm::runtime::ThreadPool;

std::vector<CellKey> selection_cells(bool paper_only) {
  std::vector<CellKey> cells;
  for (const auto& family : core::model_families().families()) {
    if (paper_only && !family.reproduction) continue;
    for (const auto model : family.selection_models) {
      cells.push_back({family.kind, model});
    }
  }
  return cells;
}

std::string cell_name(const CellKey& cell) {
  return core::to_string(cell.prior) + "." + core::to_string(cell.model);
}

double min_ess(const core::ObservationResult& result) {
  double lowest = std::numeric_limits<double>::infinity();
  for (const auto& diagnostics : result.diagnostics) {
    lowest = std::min(lowest, diagnostics.ess);
  }
  return lowest;
}

std::vector<std::pair<std::size_t, std::int64_t>> triage_fleet() {
  std::vector<std::pair<std::size_t, std::int64_t>> fleet;
  for (const std::size_t days : {30u, 90u, 180u, 365u}) {
    for (const std::int64_t total : {40, 400, 4000, 12000}) {
      fleet.emplace_back(days, total);
    }
  }
  return fleet;
}

namespace {

/// The observation day of `cells`: the last real SYS1 testing day.
constexpr std::size_t kCellsDay = data::kSys1TestingDays;
/// Requests one serve batch may hold (the CLI default).
constexpr std::size_t kMaxBatch = 64;
/// MCMC size of the set-up warm-up calls.
constexpr std::size_t kWarmUpBurnIn = 10;
constexpr std::size_t kWarmUpIterations = 40;

srm::mcmc::GibbsOptions paper_gibbs(std::uint64_t seed, std::size_t burn_in,
                                    std::size_t iterations) {
  auto gibbs = report::paper_sweep_options().gibbs;
  gibbs.seed = seed;
  gibbs.burn_in = burn_in;
  gibbs.iterations = iterations;
  return gibbs;
}

bool is_paper_size(std::size_t burn_in, std::size_t iterations) {
  const auto paper = report::paper_sweep_options().gibbs;
  return burn_in == paper.burn_in && iterations == paper.iterations;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// True while another unit fits the budget: always below `budget.min`,
/// never from `budget.max` on, otherwise when the mean unit so far still
/// ends before `seconds` of measuring.
bool another_unit(const UnitBudget& budget, const std::vector<double>& walls,
                  Clock::time_point start, double seconds) {
  if (walls.size() < budget.min) return true;
  if (walls.size() >= budget.max) return false;
  const double mean = std::accumulate(walls.begin(), walls.end(), 0.0) /
                      static_cast<double>(walls.size());
  return seconds_since(start) + mean <= seconds;
}

/// Builds the fixture `repeats` times, timing each build; setup_s is the
/// median. The previous fixture is torn down outside the timing.
template <class Make>
auto timed_setup(Outcome& out, int repeats, Make make) {
  std::vector<double> times;
  decltype(make()) fixture;
  for (int i = 0; i < repeats; ++i) {
    fixture.reset();
    const auto start = Clock::now();
    fixture = make();
    times.push_back(seconds_since(start));
  }
  out.set("setup_s", median(times), "s");
  return fixture;
}

// --- correctness oracle ---------------------------------------------------

double residual_ess(const core::ObservationResult& result) {
  for (const auto& diagnostics : result.diagnostics) {
    if (diagnostics.name == "residual") return diagnostics.ess;
  }
  throw std::runtime_error("result has no residual diagnostics");
}

std::string reference_key(const CellKey& cell, std::size_t day) {
  return cell_name(cell) + "@" + std::to_string(day);
}

/// Residual-posterior reference per cell (reference.json): a cell fails when
/// |m - m_ref| > 5 sqrt(se^2 + se_ref^2), se = sd / sqrt(ESS_residual).
class Reference {
 public:
  /// An empty path disables the check (non-paper MCMC sizes).
  explicit Reference(const std::string& path) {
    if (path.empty()) return;
    const Json json = Json::parse(read_file(path));
    for (const auto& [key, value] : json.at("cells").as_object()) {
      cells_.emplace(key, Entry{value.at("mean").as_double(),
                                value.at("sd").as_double(),
                                value.at("ess").as_double()});
    }
    enabled_ = true;
  }

  void check(const std::string& key, const core::ObservationResult& result,
             Outcome& out) const {
    if (!enabled_) return;
    const auto it = cells_.find(key);
    if (it == cells_.end()) {
      out.violate("no reference entry for " + key);
      return;
    }
    const auto& ref = it->second;
    const double mean = result.posterior.summary.mean;
    const double se =
        result.posterior.summary.sd / std::sqrt(residual_ess(result));
    const double se_ref = ref.sd / std::sqrt(ref.ess);
    const double tolerance = 5.0 * std::sqrt(se * se + se_ref * se_ref);
    if (!(std::abs(mean - ref.mean) <= tolerance)) {
      std::ostringstream what;
      what << key << ": residual mean " << mean << " vs reference "
           << ref.mean << " (tolerance " << tolerance << ")";
      out.violate(what.str());
    }
  }

 private:
  struct Entry {
    double mean;
    double sd;
    double ess;
  };
  std::map<std::string, Entry> cells_;
  bool enabled_ = false;
};

/// A fresh directory, removed again at destruction.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

fs::path unique_scratch(const RunConfig& config, const std::string& tag) {
  static int serial = 0;
  return fs::path(config.scratch_dir) /
         (tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(serial++));
}

// --- unix-socket client ---------------------------------------------------

/// One client connection to the served socket, with line framing.
class Connection {
 public:
  /// Connects, retrying for up to 5 s while the server has not bound yet.
  explicit Connection(const std::string& path) {
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.size() >= sizeof(address.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    path.copy(address.sun_path, path.size());
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (true) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error("cannot create a socket");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        return;
      }
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > deadline) {
        throw std::runtime_error("cannot connect to " + path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }

  void send_all(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const auto n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send to the service failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads whatever is available into the buffer (one read call); false
  /// at end of stream.
  bool fill() {
    char chunk[16384];
    const auto n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Pops one complete buffered line, if any.
  bool pop_line(std::string& line) {
    const auto newline = buffer_.find('\n');
    if (newline == std::string::npos) return false;
    line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return true;
  }

  /// Blocking read of the next line; false at end of stream.
  bool read_line(std::string& line) {
    while (!pop_line(line)) {
      if (!fill()) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// A serve::Service answering on a unix socket from its own thread (the
/// dispatcher), as `srm_cli serve --socket` runs it.
class ServedService {
 public:
  ServedService(const fs::path& store, std::size_t capacity,
                std::string socket_path)
      : service_(options(store, capacity)),
        socket_path_(std::move(socket_path)),
        thread_([this] { serve(); }) {
    Connection probe(socket_path_);  // returns once the server listens
  }
  ~ServedService() {
    try {
      Connection control(socket_path_);
      control.send_all("{\"op\":\"shutdown\"}\n");
      std::string line;
      (void)control.read_line(line);
    } catch (const std::exception&) {
      // The server already stopped; join below.
    }
    thread_.join();
  }
  ServedService(const ServedService&) = delete;
  ServedService& operator=(const ServedService&) = delete;

  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

 private:
  static srm::serve::ServiceOptions options(const fs::path& store,
                                            std::size_t capacity) {
    srm::serve::ServiceOptions options;
    options.cache_capacity = capacity;
    options.store_dir = store;
    return options;  // meta on: responses carry "cache" and "latency_us"
  }

  void serve() {
    try {
      srm::serve::serve_over_socket(service_, socket_path_, kMaxBatch);
    } catch (const std::exception& error) {
      std::lock_guard lock(error_mutex_);
      error_ = error.what();
    }
  }

  srm::serve::Service service_;
  std::string socket_path_;
  std::mutex error_mutex_;
  std::string error_;
  std::thread thread_;  // last: starts once everything it uses exists
};

/// The response body without the service's trailing meta members, which
/// it appends after the body ("cache", "latency_us").
std::string strip_meta(const std::string& line) {
  const auto meta = line.rfind(",\"cache\":");
  return meta == std::string::npos ? line : line.substr(0, meta) + "}";
}

Json project_json(const data::BugCountData& project) {
  Json counts = Json::Array{};
  for (const auto count : project.counts()) counts.push_back(count);
  Json json = Json::Object{};
  json.set("name", project.name());
  json.set("counts", std::move(counts));
  return json;
}

Json gibbs_json(std::size_t burn_in, std::size_t iterations,
                std::uint64_t seed) {
  Json gibbs = Json::Object{};
  gibbs.set("chains", Json::from_unsigned(2));
  gibbs.set("burn_in", Json::from_unsigned(burn_in));
  gibbs.set("iterations", Json::from_unsigned(iterations));
  gibbs.set("seed", static_cast<std::int64_t>(seed));
  return gibbs;
}

/// A synthetic project: `total` bugs, constant daily detection probability
/// chosen so about 90% are found within `days`.
data::BugCountData simulate_project(std::size_t days, std::int64_t total,
                                    std::uint64_t seed,
                                    const std::string& name) {
  const double p = 1.0 - std::pow(0.1, 1.0 / static_cast<double>(days));
  return data::simulate_replications(
             total, days, [p](std::size_t) { return p; }, seed, 1, name)
      .front();
}

/// One toy-size `select` on SYS1 through the served socket: warms the
/// transport, the dispatcher and every pool thread's tables before anything
/// is timed. Its cells land in the store beside the workload's.
void warm_up(const ServedService& server) {
  Json select = Json::Object{};
  select.set("op", "select");
  select.set("project", "sys1");
  select.set("gibbs", gibbs_json(kWarmUpBurnIn, kWarmUpIterations,
                                 kDefaultSeed));
  Connection connection(server.socket_path());
  connection.send_all(select.dump() + "\n");
  std::string line;
  if (!connection.read_line(line) || !Json::parse(line).at("ok").as_bool()) {
    throw std::runtime_error("warm-up request failed: " + line);
  }
}

/// Bytes of every file directly under `dir`.
double directory_bytes(const fs::path& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    bytes += static_cast<double>(entry.file_size());
  }
  return bytes;
}

/// Milliseconds between two now_ns() stamps.
double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

// --- paper_sweep's timestamping store -------------------------------------

/// Plans every cell for computation and stamps each completion.
class TimestampStore final : public core::ObservationStore {
 public:
  Plan plan(const core::ExperimentSpec&, std::size_t,
            core::ObservationResult&) override {
    return Plan::kCompute;
  }
  void on_computed(const core::ExperimentSpec&, std::size_t,
                   const core::ObservationResult&) override {
    const std::int64_t at = now_ns();
    std::lock_guard lock(mutex_);
    finished_ns_.push_back(at);
  }
  std::vector<std::int64_t> take() {
    std::lock_guard lock(mutex_);
    return std::exchange(finished_ns_, {});
  }

 private:
  std::mutex mutex_;
  std::vector<std::int64_t> finished_ns_;
};

}  // namespace

// --- cells ----------------------------------------------------------------

Outcome run_cells(const RunConfig& config, const CellsParams& params,
                  int setup_repeats) {
  Outcome out;
  const Reference reference(is_paper_size(params.burn_in, params.iterations)
                                ? config.reference_path
                                : "");
  const auto cells = selection_cells();

  struct Fixture {
    data::BugCountData sys1;
    std::vector<core::FitRequest> requests;
  };
  const auto fixture = timed_setup(out, setup_repeats, [&] {
    ThreadPool::set_global_thread_count(1);
    auto built = std::make_unique<Fixture>(Fixture{data::sys1_grouped(), {}});
    const auto options = report::paper_sweep_options();
    for (const auto& cell : cells) {
      core::FitRequest request;
      request.prior = cell.prior;
      request.model = cell.model;
      request.config = options.base_config;
      request.gibbs = paper_gibbs(config.seed, params.burn_in,
                                  params.iterations);
      request.gibbs.parallel_chains = false;  // one thread, chains serial
      request.observation_day = kCellsDay;
      request.eventual_total = options.eventual_total;
      // A toy-size fit fills the lazily built per-thread tables and
      // scoring buffers before anything is timed.
      auto warm_up = request;
      warm_up.gibbs.seed = kDefaultSeed;
      warm_up.gibbs.burn_in = kWarmUpBurnIn;
      warm_up.gibbs.iterations = kWarmUpIterations;
      (void)core::fit_cell(built->sys1, warm_up);
      built->requests.push_back(request);
    }
    return built;
  });

  std::vector<std::vector<double>> walls(cells.size());
  std::vector<std::vector<double>> ess(cells.size());
  std::vector<double> pass_walls;
  const auto start = Clock::now();
  for (std::size_t pass = 0;
       another_unit(params.passes, pass_walls, start, config.seconds);
       ++pass) {
    const auto pass_start = Clock::now();
    ScopedSpan pass_span("bench.cells_pass", pass);
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::string name = cell_name(cells[c]);
      auto request = fixture->requests[c];
      request.gibbs.seed = config.seed + pass;
      ++out.attempted;
      try {
        const auto fit_start = Clock::now();
        core::ObservationResult result;
        {
          ScopedSpan span("core.fit_cell", c);
          result = core::fit_cell(fixture->sys1, request);
        }
        walls[c].push_back(seconds_since(fit_start));
        ess[c].push_back(min_ess(result));
        if (pass == 0) out.counts["core.min_ess." + name] = ess[c].back();
        reference.check(reference_key(cells[c], kCellsDay), result, out);
      } catch (const std::exception& error) {
        ++out.failed;
        out.violate(name + ": " + error.what());
      }
    }
    pass_walls.push_back(seconds_since(pass_start));
  }

  // A cell's time is its fastest fit of the run. The fits are one thread of
  // CPU-bound work, so load from other tenants of the machine only ever
  // adds time, in bursts of seconds; the fastest of the passes is the
  // steadiest estimate of what the fit itself costs (the median of the
  // passes moves with the machine's load from one run to the next).
  std::vector<double> cell_walls;
  std::vector<double> cell_rates;
  double wall = 0.0;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (walls[c].empty()) continue;
    const double fastest =
        *std::min_element(walls[c].begin(), walls[c].end());
    const double mean_ess =
        std::accumulate(ess[c].begin(), ess[c].end(), 0.0) /
        static_cast<double>(ess[c].size());
    cell_walls.push_back(fastest);
    cell_rates.push_back(mean_ess / fastest);
    wall += fastest;
    const std::string name = cell_name(cells[c]);
    out.set_layer("core.fit_ms." + name, fastest * 1e3, "ms");
    out.set_layer("core.min_ess." + name, ess[c].front(), "count");
  }
  out.set("wall_s", wall, "s");
  out.set("ess_per_s", geometric_mean(cell_rates), "1/s");
  out.set("p50_ms", quantile(cell_walls, 0.50) * 1e3, "ms");
  out.set("p99_ms", quantile(cell_walls, 0.99) * 1e3, "ms");
  return out;
}

// --- paper_sweep ----------------------------------------------------------

Outcome run_paper_sweep(const RunConfig& config, const SweepParams& params,
                        int setup_repeats) {
  Outcome out;
  const Reference reference(is_paper_size(params.burn_in, params.iterations)
                                ? config.reference_path
                                : "");
  struct Fixture {
    data::BugCountData sys1 = data::sys1_grouped();
    report::SweepOptions options = report::paper_sweep_options();
    TimestampStore store;
  };
  const auto fixture = timed_setup(out, setup_repeats, [&] {
    ThreadPool::set_global_thread_count(params.workers);
    auto built = std::make_unique<Fixture>();
    // A toy-size sweep over one observation day warms every pool thread.
    auto warm_up = built->options;
    warm_up.observation_days = {warm_up.observation_days.back()};
    warm_up.gibbs = paper_gibbs(kDefaultSeed, kWarmUpBurnIn, kWarmUpIterations);
    (void)report::run_sweep(built->sys1, warm_up);
    built->options.gibbs =
        paper_gibbs(config.seed, params.burn_in, params.iterations);
    return built;
  });
  const auto& options = fixture->options;

  std::vector<double> rep_walls;
  std::vector<double> rep_rates;
  std::vector<double> tails;
  std::vector<double> finish_ms;  // pooled time-to-result of every cell
  const std::size_t cells_per_rep =
      selection_cells(true).size() * options.observation_days.size();
  const auto start = Clock::now();
  for (std::size_t rep = 0;
       another_unit(params.reps, rep_walls, start, config.seconds); ++rep) {
    auto rep_options = options;
    rep_options.gibbs.seed = config.seed + rep;
    report::SweepExecution execution;
    const std::int64_t rep_start = now_ns();
    report::SweepResult sweep;
    try {
      ScopedSpan span("report.run_sweep", rep);
      sweep = report::run_sweep(fixture->sys1, rep_options, &fixture->store,
                                &execution);
    } catch (const std::exception& error) {
      out.violate(std::string("run_sweep: ") + error.what());
    }
    const std::int64_t rep_end = now_ns();
    const auto finished = fixture->store.take();
    out.attempted += cells_per_rep;
    if (finished.size() != cells_per_rep || !execution.complete()) {
      out.failed += cells_per_rep - std::min(cells_per_rep, finished.size());
      out.violate("sweep computed " + std::to_string(finished.size()) +
                  " of " + std::to_string(cells_per_rep) + " cells");
    }

    double sampled = 0.0;
    for (const auto& cell : sweep.cells) {
      for (const auto& result : cell.results) {
        sampled += min_ess(result);
        reference.check(
            reference_key({cell.prior, cell.model}, result.observation_day),
            result, out);
      }
    }
    const double wall = ms_between(rep_start, rep_end) * 1e-3;
    if (rep == 0) out.counts["report.sum_min_ess"] = sampled;
    rep_walls.push_back(wall);
    rep_rates.push_back(sampled / wall);
    std::vector<double> offsets;
    for (const auto at : finished) offsets.push_back(ms_between(rep_start, at));
    finish_ms.insert(finish_ms.end(), offsets.begin(), offsets.end());
    tails.push_back(wall - quantile(offsets, 0.9) * 1e-3);
  }

  out.set("wall_s", median(rep_walls), "s");
  out.set("ess_per_s", median(rep_rates), "1/s");
  out.set("p50_ms", quantile(finish_ms, 0.50), "ms");
  out.set("p99_ms", quantile(finish_ms, 0.99), "ms");
  out.set_layer("report.sweep_tail_s", median(tails), "s");
  out.set_layer("report.cells_per_s",
                static_cast<double>(cells_per_rep) / median(rep_walls), "1/s");
  return out;
}

// --- triage ---------------------------------------------------------------

Outcome run_triage(const RunConfig& config, const TriageParams& params,
                   int setup_repeats) {
  Outcome out;
  const std::size_t grid = selection_cells().size();
  const auto cells = selection_cells(true);

  struct Fixture {
    std::vector<Json> projects;        // inline {"name", "counts"} objects
    std::vector<double> lambda_max;    // hyperprior support per project
    std::unique_ptr<ScratchDir> store;
    std::unique_ptr<ServedService> server;
  };
  std::vector<double> simulate_ms;
  const auto fixture = timed_setup(out, setup_repeats, [&] {
    ThreadPool::set_global_thread_count(2);
    auto built = std::make_unique<Fixture>();
    const auto simulate_start = Clock::now();
    for (std::size_t i = 0; i < params.projects.size(); ++i) {
      const auto [days, total] = params.projects[i];
      const auto project = simulate_project(
          days, total, config.seed + i,
          "triage-" + std::to_string(days) + "d-" + std::to_string(total));
      built->projects.push_back(project_json(project));
      // The Poisson-rate support must cover the project's bug content with
      // room to spare: at 4x the total, truncated-gamma draws deep in the
      // left tail of shapes in the thousands occasionally fail inside
      // math::inverse_regularized_gamma_p (a NaN Newton step), and a
      // workload must not fail. 20x matches SYS1's 2000 / 136.
      built->lambda_max.push_back(
          std::max(2000.0, 20.0 * static_cast<double>(total)));
    }
    simulate_ms.push_back(seconds_since(simulate_start) * 1e3);
    const fs::path base = unique_scratch(config, "triage");
    built->store = std::make_unique<ScratchDir>(base);
    built->server = std::make_unique<ServedService>(
        base / "store", 256, base.string() + ".sock");
    warm_up(*built->server);
    return built;
  });
  out.set_layer("data.simulate_ms", median(simulate_ms), "ms");

  const auto cells_dir = fixture->store->path() / "store" / "cells";
  std::vector<double> round_walls;
  std::vector<double> round_rates;
  // Latency of each request slot (project x op) in every round.
  std::vector<std::vector<double>> slot_ms(2 * fixture->projects.size());
  Connection client(fixture->server->socket_path());
  const auto start = Clock::now();
  for (std::size_t round = 0;
       another_unit(params.rounds, round_walls, start, config.seconds);
       ++round) {
    const Json gibbs =
        gibbs_json(params.burn_in, params.iterations, config.seed + round);
    // The round's request pairs, built before the clock starts.
    const std::size_t projects = fixture->projects.size();
    std::vector<std::string> pairs;
    for (std::size_t p = 0; p < projects; ++p) {
      Json config_json = Json::Object{};
      config_json.set("lambda_max", fixture->lambda_max[p]);
      Json select = Json::Object{};
      select.set("op", "select");
      select.set("project", fixture->projects[p]);
      select.set("config", config_json);
      select.set("gibbs", gibbs);
      const auto& release_cell = cells[p % cells.size()];
      Json release = Json::Object{};
      release.set("op", "release");
      release.set("project", fixture->projects[p]);
      release.set("prior", core::to_string(release_cell.prior));
      release.set("model", core::to_string(release_cell.model));
      release.set("config", config_json);
      release.set("gibbs", gibbs);
      pairs.push_back(select.dump() + "\n" + release.dump() + "\n");
    }
    std::vector<std::string> responses;
    std::vector<std::int64_t> sent_ns(projects), done_ns(projects);
    const double bytes_before = directory_bytes(cells_dir);
    const std::int64_t round_start = now_ns();
    for (std::size_t p = 0; p < projects; ++p) {
      sent_ns[p] = now_ns();
      out.attempted += 2;
      client.send_all(pairs[p]);
      for (std::size_t i = 0; i < 2; ++i) {
        std::string line;
        if (!client.read_line(line)) {
          throw std::runtime_error("the service closed the connection");
        }
        slot_ms[2 * p + i].push_back(ms_between(sent_ns[p], now_ns()));
        responses.push_back(std::move(line));
      }
      done_ns[p] = now_ns();
    }
    const double wall = ms_between(round_start, now_ns()) * 1e-3;

    // Checks (untimed): every select ranks the whole grid by ascending
    // finite WAIC; every release plans a day. ESS comes from the cells the
    // service wrote to its store.
    double sampled = 0.0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const Json response = Json::parse(responses[i]);
      if (!response.at("ok").as_bool()) {
        ++out.failed;
        out.violate("triage " +
                    fixture->projects[i / 2].at("name").as_string() +
                    (i % 2 == 0 ? " select: " : " release: ") +
                    responses[i].substr(0, 200));
        continue;
      }
      if (tracer() != nullptr && i % 2 == 1) {
        // The pair is one server batch: the later latency_us covers both.
        const std::size_t p = i / 2;
        const auto server_ns = 1000 * response.at("latency_us").as_int();
        const auto pair = tracer()->add("client.triage_project", sent_ns[p],
                                        done_ns[p], -1, p);
        tracer()->add("serve.batch", done_ns[p] - server_ns, done_ns[p], pair,
                      p);
      }
      const Json& result = response.at("result");
      if (i % 2 == 1) {
        if (result.at("best").at("day").as_int() < 1) {
          out.violate("triage: release without a release day");
        }
        continue;
      }
      const auto& ranking = result.at("ranking").as_array();
      if (ranking.size() != grid) {
        out.violate("triage: select ranked " +
                    std::to_string(ranking.size()) + " cells, expected " +
                    std::to_string(grid));
      }
      double previous = -std::numeric_limits<double>::infinity();
      for (const auto& row : ranking) {
        const double waic = row.at("waic").as_double();
        if (!std::isfinite(waic) || waic < previous) {
          out.violate("triage: ranking not ascending finite WAIC");
        }
        previous = waic;
      }
      for (const auto& row : ranking) {
        const Json envelope = Json::parse(
            read_file(cells_dir / (row.at("hash").as_string() + ".json")));
        sampled += min_ess(
            srm::artifact::observation_result_from_json(envelope.at("result")));
      }
    }
    if (round == 0) {
      const double bytes = directory_bytes(cells_dir) - bytes_before;
      out.counts["artifact.store_bytes"] = bytes;
      out.counts["triage.responses"] = static_cast<double>(responses.size());
      out.set_layer("artifact.store_bytes", bytes, "bytes");
    }
    round_walls.push_back(wall);
    round_rates.push_back(sampled / wall);
  }

  // Quantiles over the slots' medians across rounds: with a few dozen
  // requests a round, the raw p99 would be one request's latency.
  std::vector<double> slot_medians;
  for (const auto& latencies : slot_ms) slot_medians.push_back(median(latencies));
  out.set("wall_s", median(round_walls), "s");
  out.set("ess_per_s", median(round_rates), "1/s");
  out.set("p50_ms", quantile(slot_medians, 0.50), "ms");
  out.set("p99_ms", quantile(slot_medians, 0.99), "ms");
  return out;
}

// --- dashboard ------------------------------------------------------------

namespace {

/// Sessions the load generator keeps open at once: the service's listen
/// backlog (8) plus the connection it is serving. Any more and connect()
/// would block the generator.
constexpr std::size_t kMaxOpenSessions = 8;
constexpr double kSessionsPerSecond = 40.0;
constexpr std::size_t kRequestsPerSession = 5;
constexpr double kNewQueryShare = 0.05;
constexpr std::size_t kDashboardProjects = 24;
/// Series length: a cold 2 x (100 + 400) compute averages ~14 ms over the
/// ten paper cells at this length.
constexpr std::size_t kDashboardDays = 24;
/// Op of each block of ten never-seen queries (one per paper cell):
/// 14 fit, 3 predict, 3 release in every 20 blocks.
constexpr char kOpPattern[] = "FFPFFRFFFPFFRFFFPFRF";

/// Gives the busy-polling load generator a CPU of its own and keeps the
/// service off it: sharing one, the dispatcher would preempt the generator
/// for a whole cold compute (~10 ms late), or the generator would take CPU
/// time from the service. Restores the calling thread's CPU set at
/// destruction.
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&original_);
    if (::sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuSplit() { (void)::sched_setaffinity(0, sizeof(original_), &original_); }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  /// Every CPU but the last, for threads created from here on.
  void pin_service() const {
    if (cpus_.size() < 2) return;
    pin({cpus_.begin(), cpus_.end() - 1});
  }
  /// The last CPU alone.
  void pin_generator() const {
    if (cpus_.size() < 2) return;
    pin({cpus_.back()});
  }

 private:
  static void pin(const std::vector<std::size_t>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const std::size_t cpu : cpus) CPU_SET(cpu, &set);
    (void)::sched_setaffinity(0, sizeof(set), &set);
  }

  cpu_set_t original_;
  std::vector<std::size_t> cpus_;
};

struct Schedule {
  std::vector<double> due_s;          ///< session arrival times
  std::vector<std::string> payload;   ///< a session's pipelined lines
};

/// The k-th never-seen query. The cell cycles fastest, then the project,
/// then the observation day; the op follows kOpPattern per block of cells,
/// so every seed offers the same mix of cold work (70 % fit, 15 % predict,
/// 15 % release).
std::string new_query(std::size_t k, const std::vector<Json>& projects,
                      const std::vector<CellKey>& cells, const Json& gibbs) {
  const std::size_t block = k / cells.size();
  const auto& cell = cells[k % cells.size()];
  const std::size_t shorter = 4 * (block / projects.size() % 3);
  Json query = Json::Object{};
  switch (kOpPattern[block % (sizeof(kOpPattern) - 1)]) {
    case 'F':
      query.set("op", "fit");
      query.set("day", Json::from_unsigned(kDashboardDays - shorter));
      break;
    case 'P':
      query.set("op", "predict");
      query.set("fit_days", Json::from_unsigned(kDashboardDays - 6 - shorter));
      break;
    default:
      query.set("op", "release");
      query.set("day", Json::from_unsigned(kDashboardDays - shorter));
      query.set("horizon", Json::from_unsigned(30));
      break;
  }
  query.set("project", projects[block % projects.size()]);
  query.set("prior", core::to_string(cell.prior));
  query.set("model", core::to_string(cell.model));
  query.set("gibbs", gibbs);
  return query.dump();
}

/// Open-loop arrivals: a Poisson process conditioned on its count (the
/// sorted uniform order statistics), so every seed offers the same load.
/// Each request is never-seen with a fixed 5 % share, otherwise Zipf (s = 1)
/// over the queries seen so far, the earliest seen the most popular.
Schedule make_schedule(const DashboardParams& params, std::uint64_t seed,
                       const std::vector<Json>& projects) {
  srm::random::Rng rng(seed);
  const auto sessions = static_cast<std::size_t>(
      std::llround(kSessionsPerSecond * params.seconds));
  Schedule schedule;
  for (std::size_t s = 0; s < sessions; ++s) {
    schedule.due_s.push_back(rng.uniform() * params.seconds);
  }
  std::sort(schedule.due_s.begin(), schedule.due_s.end());

  const std::size_t requests = sessions * kRequestsPerSession;
  std::vector<std::size_t> order(requests);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto fresh = static_cast<std::size_t>(
      std::llround(kNewQueryShare * static_cast<double>(requests)));
  std::vector<bool> is_new(requests, false);
  for (std::size_t i = 0; i < fresh; ++i) {
    std::swap(order[i], order[i + rng.uniform_index(requests - i)]);
    is_new[order[i]] = true;
  }

  const auto cells = selection_cells(true);
  const Json gibbs = gibbs_json(params.burn_in, params.iterations, seed);
  std::vector<std::string> seen;
  std::vector<double> harmonic{0.0};  // harmonic[m] = sum_{r<m} 1/(r+1)
  schedule.payload.resize(sessions);
  for (std::size_t i = 0; i < requests; ++i) {
    std::string query;
    if (is_new[i] || seen.empty()) {
      query = new_query(seen.size(), projects, cells, gibbs);
      seen.push_back(query);
      harmonic.push_back(harmonic.back() +
                         1.0 / static_cast<double>(seen.size()));
    } else {
      const double target = rng.uniform() * harmonic[seen.size()];
      const auto rank = static_cast<std::size_t>(
          std::upper_bound(harmonic.begin() + 1,
                           harmonic.begin() +
                               static_cast<std::ptrdiff_t>(seen.size()) + 1,
                           target) -
          (harmonic.begin() + 1));
      query = seen[std::min(rank, seen.size() - 1)];
    }
    schedule.payload[i / kRequestsPerSession] += query + "\n";
  }
  return schedule;
}

/// The schedule splits into this many equal windows of due times; p99_ms
/// is the lowest of their p99s (see run_dashboard).
constexpr std::size_t kLatencyWindows = 3;

/// What the dashboard client keeps of its responses: per-request latency
/// parts (also per window of due times), per-tier server latencies, one
/// body per hash for the identity check, and the ESS of the fit posteriors
/// computed.
struct DashboardTally {
  std::map<std::string, std::string> bodies;
  std::vector<double> latency_ms, wait_ms, hit_us, disk_us, computed_ms;
  std::array<std::vector<double>, kLatencyWindows> window_ms;
  double sampled = 0.0;
  double response_bytes = 0.0;
  std::int64_t last_ns = 0;

  /// Records one response of a request due in `window`; returns the
  /// server's latency_us (0 for an error response).
  double take(const std::string& line, std::int64_t due_ns,
              std::int64_t received_ns, std::size_t window, Outcome& out) {
    const Json response = Json::parse(line);
    if (!response.at("ok").as_bool()) {
      ++out.failed;
      out.violate("dashboard: " + line.substr(0, 200));
      return 0.0;
    }
    const std::string& hash = response.at("hash").as_string();
    const auto [it, inserted] = bodies.emplace(hash, strip_meta(line));
    if (!inserted && it->second != strip_meta(line)) {
      out.violate("dashboard: response body differs across tiers for " +
                  hash);
    }
    const std::string& tier = response.at("cache").as_string();
    const auto server_us =
        static_cast<double>(response.at("latency_us").as_int());
    const double latency = ms_between(due_ns, received_ns);
    latency_ms.push_back(latency);
    window_ms[window].push_back(latency);
    wait_ms.push_back(latency - server_us * 1e-3);
    response_bytes += static_cast<double>(line.size());
    last_ns = std::max(last_ns, received_ns);
    if (tier == "hit") hit_us.push_back(server_us);
    if (tier == "disk") disk_us.push_back(server_us);
    if (tier == "computed") {
      computed_ms.push_back(server_us * 1e-3);
      if (response.at("op").as_string() == "fit") {
        sampled += min_ess(srm::artifact::observation_result_from_json(
            response.at("result")));
      }
    }
    return server_us;
  }
};

}  // namespace

Outcome run_dashboard(const RunConfig& config, const DashboardParams& params,
                      int setup_repeats) {
  Outcome out;
  CpuSplit affinity;
  struct Fixture {
    Schedule schedule;
    std::unique_ptr<ScratchDir> store;
    std::unique_ptr<ServedService> server;
  };
  const auto fixture = timed_setup(out, setup_repeats, [&] {
    affinity.pin_service();  // the pool and the dispatcher inherit it
    ThreadPool::set_global_thread_count(2);
    auto built = std::make_unique<Fixture>();
    std::vector<Json> projects;
    for (std::size_t j = 0; j < kDashboardProjects; ++j) {
      projects.push_back(project_json(simulate_project(
          kDashboardDays, 60, config.seed + j, "dash-" + std::to_string(j))));
    }
    built->schedule = make_schedule(params, config.seed, projects);
    const fs::path base = unique_scratch(config, "dashboard");
    built->store = std::make_unique<ScratchDir>(base);
    built->server = std::make_unique<ServedService>(
        base / "store", params.cache_capacity, base.string() + ".sock");
    warm_up(*built->server);
    return built;
  });
  affinity.pin_generator();
  const Schedule& schedule = fixture->schedule;
  const std::size_t sessions = schedule.due_s.size();

  // The load generator: one thread, one busy ppoll() loop. A session
  // connects and pipelines its requests when due (if a connection slot is
  // free) and closes once every response is in. Latency counts from the due
  // time.
  struct Open {
    std::unique_ptr<Connection> connection;
    std::size_t session;
    std::size_t received = 0;
  };
  struct Received {
    std::size_t session;
    std::int64_t at_ns;
    std::string line;
  };
  std::vector<Received> received;
  received.reserve(sessions * kRequestsPerSession);
  std::vector<std::int64_t> due_ns(sessions);
  std::vector<Open> open;
  double max_lag_ms = 0.0;
  const std::int64_t origin = now_ns() + 10'000'000;  // first due in 10 ms
  for (std::size_t s = 0; s < sessions; ++s) {
    due_ns[s] = origin + static_cast<std::int64_t>(schedule.due_s[s] * 1e9);
  }
  std::size_t next = 0;
  while (next < sessions || !open.empty()) {
    while (next < sessions && due_ns[next] <= now_ns() &&
           open.size() < kMaxOpenSessions) {
      max_lag_ms = std::max(max_lag_ms, ms_between(due_ns[next], now_ns()));
      Open session{std::make_unique<Connection>(fixture->server->socket_path()),
                   next};
      session.connection->send_all(schedule.payload[next]);
      out.attempted += kRequestsPerSession;
      open.push_back(std::move(session));
      ++next;
    }
    std::vector<pollfd> fds;
    for (const auto& session : open) {
      fds.push_back(pollfd{session.connection->fd(), POLLIN, 0});
    }
    // Busy polling: on a shared virtual machine a thread asleep in a timed
    // wait can wake many milliseconds late, and would then start sessions
    // late and stamp responses late.
    const timespec no_wait{};
    if (::ppoll(fds.data(), fds.size(), &no_wait, nullptr) < 0 &&
        errno != EINTR) {
      throw std::runtime_error("ppoll failed");
    }
    for (std::size_t i = fds.size(); i-- > 0;) {
      if (fds[i].revents == 0) continue;
      Open& session = open[i];
      const bool alive = session.connection->fill();
      const std::int64_t at = now_ns();
      std::string line;
      while (session.received < kRequestsPerSession &&
             session.connection->pop_line(line)) {
        ++session.received;
        received.push_back({session.session, at, std::move(line)});
      }
      if (!alive || session.received == kRequestsPerSession) {
        if (session.received < kRequestsPerSession) {
          out.failed += kRequestsPerSession - session.received;
          out.violate("dashboard: session " + std::to_string(session.session) +
                      " lost its connection");
        }
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
  }

  // Responses are parsed once the schedule is over, so the generator's loop
  // does nothing but send, receive and stamp.
  DashboardTally tally;
  tally.last_ns = due_ns.front();
  for (const auto& response : received) {
    const auto window = std::min(
        kLatencyWindows - 1,
        static_cast<std::size_t>(schedule.due_s[response.session] *
                                 static_cast<double>(kLatencyWindows) /
                                 params.seconds));
    const double server_us =
        tally.take(response.line, due_ns[response.session], response.at_ns,
                   window, out);
    if (tracer() != nullptr) {
      // The client's span, with the server's share of it as a child: the
      // client layer's self time is then transport and queueing.
      const auto request =
          tracer()->add("client.request", due_ns[response.session],
                        response.at_ns, -1, response.session);
      const auto server_ns = static_cast<std::int64_t>(server_us * 1e3);
      tracer()->add("serve.request", response.at_ns - server_ns,
                    response.at_ns, request, response.session);
    }
  }

  const double wall = ms_between(due_ns.front(), tally.last_ns) * 1e-3;
  const double answered =
      static_cast<double>(std::max<std::size_t>(tally.latency_ms.size(), 1));
  const auto share = [&](const std::vector<double>& tier) {
    return static_cast<double>(tier.size()) / answered;
  };
  const auto median_or_zero = [](const std::vector<double>& values) {
    return values.empty() ? 0.0 : median(values);
  };
  // The p99 is the best of the windows' p99s (each over ~2 000 requests in
  // a full run, ~20 beyond it). The tail is requests queued behind cold
  // computes, and a burst of load from other tenants of the machine
  // stretches those computes: a whole-run p99 moves with such bursts from
  // one run to the next, the least disturbed window's p99 much less.
  double p99 = std::numeric_limits<double>::infinity();
  for (const auto& window : tally.window_ms) {
    if (!window.empty()) p99 = std::min(p99, quantile(window, 0.99));
  }
  out.set("wall_s", wall, "s");
  out.set("ess_per_s", tally.sampled / wall, "1/s");
  out.set("p50_ms", quantile(tally.latency_ms, 0.50), "ms");
  out.set("p99_ms", p99, "ms");
  out.set_layer("serve.hit_us_p50", median_or_zero(tally.hit_us), "us");
  out.set_layer("serve.disk_us_p50", median_or_zero(tally.disk_us), "us");
  out.set_layer("serve.computed_ms_p50", median_or_zero(tally.computed_ms),
                "ms");
  out.set_layer("serve.wait_ms_p50", quantile(tally.wait_ms, 0.50), "ms");
  out.set_layer("serve.wait_ms_p99", quantile(tally.wait_ms, 0.99), "ms");
  out.set_layer("serve.hit_frac", share(tally.hit_us), "ratio");
  out.set_layer("serve.disk_frac", share(tally.disk_us), "ratio");
  out.set_layer("serve.computed_frac", share(tally.computed_ms), "ratio");
  out.set_layer("serve.response_bytes", tally.response_bytes / answered,
                "bytes");
  out.set_layer("loadgen.max_lag_ms", max_lag_ms, "ms");
  return out;
}

// --- dispatch -------------------------------------------------------------

Outcome run_workload(const RunConfig& config) {
  const bool smoke = config.smoke;
  const int setups = smoke ? 1 : kSetupRepeats;
  if (config.workload == "cells") {
    CellsParams params;
    if (smoke) params = {20, 80, {1, 1}};
    return run_cells(config, params, setups);
  }
  if (config.workload == "paper_sweep") {
    SweepParams params;
    if (smoke) params = {20, 80, 3, {1, 1}};
    return run_paper_sweep(config, params, setups);
  }
  if (config.workload == "triage") {
    TriageParams params{triage_fleet()};
    if (smoke) params = {{{30, 40}, {90, 400}}, 20, 80, {1, 1}};
    return run_triage(config, params, setups);
  }
  if (config.workload == "dashboard") {
    DashboardParams params;
    params.seconds = smoke ? 1.5 : config.seconds;
    if (smoke) {
      params.cache_capacity = 8;
      params.burn_in = 20;
      params.iterations = 80;
    }
    return run_dashboard(config, params, setups);
  }
  if (config.workload == "counts") {
    // One unit of each counted workload at full size, plus the slice
    // probe: every number here is deterministic at a seed.
    Outcome out;
    const auto merge = [&out](const Outcome& part) {
      out.counts.insert(part.counts.begin(), part.counts.end());
      out.attempted += part.attempted;
      out.failed += part.failed;
      out.violations.insert(out.violations.end(), part.violations.begin(),
                            part.violations.end());
    };
    merge(run_cells(config, CellsParams{500, 2500, {1, 1}}, 1));
    merge(run_paper_sweep(config, SweepParams{500, 2500, 3, {1, 1}}, 1));
    merge(run_triage(config, TriageParams{triage_fleet(), 100, 400, {1, 1}},
                     1));
    probe_slice_counts(config.seed, out);
    return out;
  }
  throw std::invalid_argument("unknown workload \"" + config.workload +
                              "\" (cells|paper_sweep|triage|dashboard|counts)");
}

// --- reference ------------------------------------------------------------

Json compute_reference(std::uint64_t seed) {
  Json cells = Json::Object{};
  const auto add = [&cells](const std::string& key,
                            const core::ObservationResult& result) {
    Json entry = Json::Object{};
    entry.set("mean", result.posterior.summary.mean);
    entry.set("sd", result.posterior.summary.sd);
    entry.set("ess", residual_ess(result));
    cells.set(key, std::move(entry));
  };
  ThreadPool::set_global_thread_count(3);
  const auto sys1 = data::sys1_grouped();
  auto options = report::paper_sweep_options();
  options.gibbs.seed = seed;
  for (const auto& cell : selection_cells()) {
    core::FitRequest request;
    request.prior = cell.prior;
    request.model = cell.model;
    request.config = options.base_config;
    request.gibbs = options.gibbs;
    request.observation_day = kCellsDay;
    request.eventual_total = options.eventual_total;
    add(reference_key(cell, kCellsDay), core::fit_cell(sys1, request));
  }
  for (const auto& cell : report::run_sweep(sys1, options).cells) {
    for (const auto& result : cell.results) {
      add(reference_key({cell.prior, cell.model}, result.observation_day),
          result);
    }
  }
  Json reference = Json::Object{};
  reference.set("seed", static_cast<std::int64_t>(seed));
  reference.set("gibbs", srm::artifact::to_json(options.gibbs));
  reference.set("cells", std::move(cells));
  return reference;
}

}  // namespace srm_perf
