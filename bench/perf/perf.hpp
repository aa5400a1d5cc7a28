// srm_perf — one layered benchmark for bayes-srm, measured from outside the
// library through its public entry points (see README.md for the workloads,
// every metric, and the API-surface and thread rules it keeps).
//
// Shared pieces: the run configuration, the result record every workload
// fills, the in-memory span tracer, and small statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace srm_perf {

using Clock = std::chrono::steady_clock;
using srm::support::Json;

/// Default workload seed: the paper's Gibbs master seed.
inline constexpr std::uint64_t kDefaultSeed = 20240624;

/// Seconds elapsed since `start`.
double seconds_since(Clock::time_point start);

/// Nanoseconds since the first call in this process (the trace time base).
std::int64_t now_ns();

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 30.0;  ///< measured time budget of one run
  bool smoke = false;     ///< toy sizes: exercise every path, time nothing
  /// Per-cell residual-posterior reference (reference.json); empty skips
  /// the statistical oracle.
  std::string reference_path;
  /// Scratch directory for stores and sockets (relative paths keep the
  /// unix socket path short).
  std::string scratch_dir = "build-perf/scratch";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload (or the layer probe suite) reports.
struct Outcome {
  std::map<std::string, Metric> metrics;  ///< end-to-end
  std::map<std::string, Metric> layers;   ///< per-layer
  /// Deterministic work counts: identical on every run at one seed.
  std::map<std::string, double> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  ///< correctness-check failures

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void set_layer(const std::string& name, double value,
                 const std::string& unit) {
    layers[name] = Metric{value, unit};
  }
  /// Records a violation (at most a few are kept verbatim).
  void violate(const std::string& what);
};

// --- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); `values` need not be
/// sorted. NaN for an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geometric_mean(std::span<const double> values);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

// --- tracing --------------------------------------------------------------

/// In-memory span recorder. Spans are kept until write_jsonl() at exit;
/// a span's parent is the innermost span open on the same thread.
class Tracer {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<call>", e.g. "core.fit_cell"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans, -1 for a root
    std::uint64_t id = 0;      ///< request / session / cell id
  };

  /// Opens a span; returns its index for end().
  std::int64_t begin(std::string name, std::uint64_t id);
  void end(std::int64_t index);
  /// Records a finished span whose interval was measured elsewhere (for
  /// example the server-side share of a request, from its latency meta);
  /// returns its index.
  std::int64_t add(std::string name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int64_t parent, std::uint64_t id);

  /// Self time (span duration minus its children's) summed per layer.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const;
  [[nodiscard]] std::size_t size() const;
  void write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process tracer, or nullptr when the run is untraced.
Tracer* tracer();
void enable_tracing();

/// RAII span on the process tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int64_t parent_;
  std::int64_t index_ = -1;
};

// --- entry points ---------------------------------------------------------

/// Runs one named workload ("cells", "paper_sweep", "triage", "dashboard")
/// or the deterministic-count pass ("counts"). Throws on an unknown name.
Outcome run_workload(const RunConfig& config);

/// The layer probe suite behind every per-layer metric: microprobes of
/// support, core, mcmc, diagnostics and artifact, plus compact editions of
/// the four workloads for the runtime, report and serve layers.
Outcome run_layer_probes(const RunConfig& config);

/// The residual-posterior reference of every cells / paper_sweep cell at
/// `seed`, in reference.json form.
Json compute_reference(std::uint64_t seed);

}  // namespace srm_perf
