// srm_perf — runs one workload of the layered benchmark and prints one JSON
// result object on stdout. bench/perf/run.py builds it, runs it once per
// workload, and formats the results; see README.md.
//
//   srm_perf --workload cells|paper_sweep|triage|dashboard|counts
//            [--seed N] [--seconds S] [--trace FILE] [--smoke]
//            [--reference reference.json] [--scratch DIR]
//   srm_perf --write-reference FILE [--seed N]
//
// --trace FILE records spans around every call into the library, prints
// each layer's self time on stderr, writes the spans to FILE as JSON lines,
// and then runs the layer probe suite for the per-layer metrics.
#include <csignal>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "perf.hpp"
#include "support/simd/lanes.hpp"

namespace {

using srm_perf::Json;

Json metrics_json(const std::map<std::string, srm_perf::Metric>& metrics) {
  Json json = Json::Object{};
  for (const auto& [name, metric] : metrics) {
    Json entry = Json::Object{};
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    json.set(name, std::move(entry));
  }
  return json;
}

int usage() {
  std::cerr << "usage: srm_perf --workload "
               "cells|paper_sweep|triage|dashboard|counts [--seed N] "
               "[--seconds S] [--trace FILE] [--smoke] [--reference FILE] "
               "[--scratch DIR]\n"
               "       srm_perf --write-reference FILE [--seed N]\n";
  return 2;
}

int run(int argc, char** argv) {
  srm_perf::RunConfig config;
  std::string trace_path;
  std::string reference_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--reference" && has_value) {
      config.reference_path = argv[++i];
    } else if (arg == "--scratch" && has_value) {
      config.scratch_dir = argv[++i];
    } else if (arg == "--write-reference" && has_value) {
      reference_out = argv[++i];
    } else {
      return usage();
    }
  }

  if (!reference_out.empty()) {
    std::ofstream out(reference_out, std::ios::binary);
    out << srm_perf::compute_reference(config.seed).dump(2) << "\n";
    return out ? 0 : 1;
  }
  if (config.workload.empty()) return usage();

  if (!trace_path.empty()) srm_perf::enable_tracing();
  srm_perf::Outcome outcome = srm_perf::run_workload(config);
  outcome.set("peak_rss_mib", srm_perf::peak_rss_mib(), "MiB");

  Json trace = Json::Object{};
  if (srm_perf::Tracer* tracer = srm_perf::tracer(); tracer != nullptr) {
    // Self times cover the workload's own spans, before the probes run.
    Json self = Json::Object{};
    for (const auto& [layer, seconds] : tracer->self_seconds_by_layer()) {
      std::cerr << "self time  " << layer << "  " << seconds << " s\n";
      self.set(layer, seconds);
    }
    trace.set("self_s", std::move(self));
    trace.set("workload_spans", Json::from_unsigned(tracer->size()));
    srm_perf::Outcome probes = srm_perf::run_layer_probes(config);
    outcome.layers = std::move(probes.layers);
    for (auto& violation : probes.violations) {
      outcome.violations.push_back(std::move(violation));
    }
    tracer->write_jsonl(trace_path);
  }

  Json violations = Json::Array{};
  for (const auto& violation : outcome.violations) {
    std::cerr << "CHECK FAILED: " << violation << "\n";
    violations.push_back(violation);
  }
  Json counts = Json::Object{};
  for (const auto& [name, value] : outcome.counts) counts.set(name, value);
  Json machine = Json::Object{};
  machine.set("hardware_threads",
              Json::from_unsigned(std::thread::hardware_concurrency()));
  machine.set("compiler", __VERSION__);
  // The backend support/simd selects under the repository's default flags.
  machine.set("simd_isa", srm::simd::kIsaName);

  Json result = Json::Object{};
  result.set("workload", config.workload);
  result.set("seed", static_cast<std::int64_t>(config.seed));
  result.set("smoke", config.smoke);
  result.set("correct", outcome.violations.empty());
  result.set("attempted", Json::from_unsigned(outcome.attempted));
  result.set("failed", Json::from_unsigned(outcome.failed));
  result.set("violations", std::move(violations));
  result.set("metrics", metrics_json(outcome.metrics));
  result.set("layers", metrics_json(outcome.layers));
  result.set("counts", std::move(counts));
  result.set("machine", std::move(machine));
  result.set("trace", std::move(trace));
  std::cout << result.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A peer that vanishes must surface as a failed send, not a signal.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "srm_perf: " << error.what() << "\n";
    return 1;
  }
}
