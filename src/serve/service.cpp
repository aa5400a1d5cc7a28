#include "serve/service.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <ostream>
#include <utility>

#include "artifact/cell_store.hpp"
#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "core/experiment.hpp"
#include "mcmc/gibbs.hpp"
#include "runtime/task_group.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::serve {

namespace {

using support::Json;

/// A fit-cell envelope in exactly ArtifactStore's cells/<hash>.json format,
/// so the disk tier interoperates with sweep artifact directories.
Json fit_envelope(const data::BugCountData& project,
                  const core::FitRequest& fit, const std::string& hash) {
  Json cell = Json::Object{};
  cell.set("schema_version", artifact::kSchemaVersion);
  cell.set("hash", hash);
  cell.set("prior", core::to_string(fit.prior));
  cell.set("model", core::to_string(fit.model));
  cell.set("observation_day", Json::from_unsigned(fit.observation_day));
  cell.set("result", artifact::to_json(core::fit_cell(project, fit)));
  return cell;
}

Json predict_envelope(const Request& request, const std::string& hash) {
  auto gibbs = request.fit.gibbs;
  gibbs.keep_traces = true;  // the holdout scorer walks the raw chains
  const auto summary = core::fit_and_score_holdout(
      request.project, request.fit_days, request.fit.prior, request.fit.model,
      request.fit.config, gibbs);
  Json cell = Json::Object{};
  cell.set("schema_version", artifact::kSchemaVersion);
  cell.set("hash", hash);
  cell.set("op", "predict");
  cell.set("result", to_json(summary));
  return cell;
}

Json release_envelope(const Request& request, const std::string& hash) {
  auto gibbs = request.fit.gibbs;
  gibbs.keep_traces = true;  // plan_release resamples from the stored run
  const auto observed = core::dataset_at_observation(
      request.project, request.fit.observation_day);
  const auto model =
      core::make_model(request.fit.prior, request.fit.model, observed,
                       request.fit.config);
  const auto run = mcmc::run_gibbs(*model, gibbs);
  const auto plan = core::plan_release(*model, run, request.horizon,
                                       request.costs);
  Json cell = Json::Object{};
  cell.set("schema_version", artifact::kSchemaVersion);
  cell.set("hash", hash);
  cell.set("op", "release");
  Json result = to_json(plan);
  result.set("observation_day",
             Json::from_unsigned(request.fit.observation_day));
  cell.set("result", std::move(result));
  return cell;
}

/// The grid a select request expands to, in deterministic registry order:
/// every registered family's selection models.
std::vector<core::FitRequest> select_grid(const Request& request) {
  std::vector<core::FitRequest> grid;
  for (const auto& entry : core::model_families().families()) {
    for (const auto model : entry.selection_models) {
      core::FitRequest fit = request.fit;
      fit.prior = entry.kind;
      fit.model = model;
      grid.push_back(fit);
    }
  }
  return grid;
}

/// One need = one cacheable computation a request depends on.
struct Need {
  std::string hash;
  std::function<Json()> compute;  ///< pure; runs on a pool worker
};

/// A computed-or-failed envelope slot, written by exactly one pool task.
struct Slot {
  Json value;
  std::string error;
};

struct ParsedLine {
  std::optional<Request> request;  ///< nullopt: `response` is final already
  Json response;                   ///< error response when !request
  std::vector<Need> needs;         ///< in grid order for select
};

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.store_dir) {}

ResponseInfo Service::handle_line(const std::string& line) {
  auto responses = handle_batch({line});
  SRM_EXPECTS(responses.size() == 1, "handle_line needs a non-blank line");
  return std::move(responses.front());
}

std::vector<ResponseInfo> Service::handle_batch(
    const std::vector<std::string>& lines) {
  const Stopwatch batch_watch;
  ++batches_;

  // Phase 1 (dispatcher thread): parse every line, derive each request's
  // needed computations, and resolve what the cache can answer. First
  // resolution of a hash wins; later requests in the batch share it.
  std::vector<ParsedLine> parsed;
  parsed.reserve(lines.size());
  std::map<std::string, Json> resolved;        // hash -> envelope
  std::map<std::string, CacheTier> tiers;      // hash -> first resolution
  std::vector<Need> to_compute;                // schedule order
  std::map<std::string, std::size_t> compute_slot;  // hash -> slot index
  std::map<std::string, std::string> unreadable;    // hash -> load error

  for (const auto& line : lines) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ParsedLine entry;
    try {
      const Json json = Json::parse(line);
      Request request = parse_request(json);
      const std::string hash = request_hash(request);
      switch (request.op) {
        case Op::kFit:
          entry.needs.push_back(
              {hash, [project = request.project, fit = request.fit, hash] {
                 return fit_envelope(project, fit, hash);
               }});
          break;
        case Op::kPredict:
          entry.needs.push_back({hash, [request, hash] {
                                   return predict_envelope(request, hash);
                                 }});
          break;
        case Op::kRelease:
          entry.needs.push_back({hash, [request, hash] {
                                   return release_envelope(request, hash);
                                 }});
          break;
        case Op::kSelect:
          for (const auto& fit : select_grid(request)) {
            const std::string cell = artifact::cell_hash(
                request.project, core::to_experiment_spec(fit),
                fit.observation_day);
            entry.needs.push_back(
                {cell, [project = request.project, fit, cell] {
                   return fit_envelope(project, fit, cell);
                 }});
          }
          break;
        case Op::kStats:
        case Op::kShutdown:
          break;
      }
      entry.request = std::move(request);
    } catch (const std::exception& error) {
      std::optional<Json> id;
      // Fish the id back out for the error response when the line at
      // least parsed as an object (parse_request failures).
      try {
        const Json json = Json::parse(line);
        if (json.is_object()) {
          if (const Json* found = json.find("id")) id = *found;
        }
      } catch (...) {
      }
      entry.response = make_error(id, error.what());
    }

    if (entry.request.has_value()) {
      for (const auto& need : entry.needs) {
        if (const auto it = tiers.find(need.hash); it != tiers.end()) {
          if (it->second == CacheTier::kComputed) ++dedup_shared_;
          continue;
        }
        if (unreadable.count(need.hash) != 0) continue;
        std::optional<std::pair<Json, CacheTier>> hit;
        try {
          hit = cache_.lookup(need.hash);
        } catch (const std::exception& error) {
          // An unreadable disk cell fails the requests that need it, like
          // a failed computation; the rest of the stream is answered.
          unreadable.emplace(need.hash, error.what());
          continue;
        }
        if (hit.has_value()) {
          tiers.emplace(need.hash, hit->second);
          resolved.emplace(need.hash, std::move(hit->first));
          continue;
        }
        tiers.emplace(need.hash, CacheTier::kComputed);
        compute_slot.emplace(need.hash, to_compute.size());
        to_compute.push_back(need);
      }
    }
    parsed.push_back(std::move(entry));
  }
  max_batch_ = std::max(max_batch_, parsed.size());

  // Phase 2 (pool workers): every unique cold computation runs once —
  // in-flight dedup is the compute_slot map. Each task owns one slot, so
  // no synchronization beyond the TaskGroup barrier is needed.
  std::vector<Slot> slots(to_compute.size());
  if (!to_compute.empty()) {
    runtime::TaskGroup group;
    for (std::size_t i = 0; i < to_compute.size(); ++i) {
      group.run([&slot = slots[i], &need = to_compute[i]] {
        try {
          slot.value = need.compute();
        } catch (const std::exception& error) {
          slot.error = error.what();
        }
      });
    }
    group.wait();
  }

  // Phase 3 (dispatcher thread): persist fresh envelopes in schedule order
  // (deterministic LRU/eviction/disk sequence), then assemble responses in
  // request order.
  for (std::size_t i = 0; i < to_compute.size(); ++i) {
    if (slots[i].error.empty()) {
      cache_.insert(to_compute[i].hash, slots[i].value);
      resolved.emplace(to_compute[i].hash, std::move(slots[i].value));
    }
  }

  const auto envelope_of =
      [&](const std::string& hash) -> std::pair<const Json*, std::string> {
    if (const auto it = resolved.find(hash); it != resolved.end()) {
      return {&it->second, {}};
    }
    if (const auto it = unreadable.find(hash); it != unreadable.end()) {
      return {nullptr, it->second};
    }
    const auto slot = compute_slot.find(hash);
    SRM_EXPECTS(slot != compute_slot.end(), "lost envelope for " + hash);
    return {nullptr, slots[slot->second].error};
  };

  std::vector<ResponseInfo> responses;
  responses.reserve(parsed.size());
  for (auto& entry : parsed) {
    ++requests_total_;
    ResponseInfo info;
    Json response;
    if (!entry.request.has_value()) {
      response = std::move(entry.response);
    } else {
      const Request& request = *entry.request;
      switch (request.op) {
        case Op::kStats:
          response = make_response(request, "", stats_json());
          break;
        case Op::kShutdown: {
          shutdown_ = true;
          Json result = Json::Object{};
          result.set("shutting_down", true);
          response = make_response(request, "", std::move(result));
          break;
        }
        case Op::kFit:
        case Op::kPredict:
        case Op::kRelease: {
          const auto& need = entry.needs.front();
          const auto [envelope, error] = envelope_of(need.hash);
          if (envelope == nullptr) {
            response = make_error(request.id, error);
          } else {
            response =
                make_response(request, need.hash, envelope->at("result"));
            info.cache_tag = to_string(tiers.at(need.hash));
          }
          break;
        }
        case Op::kSelect: {
          // Rank the grid by WAIC (ascending; stable on ties, so grid
          // order breaks them deterministically).
          std::string error;
          std::vector<std::pair<double, Json>> rows;
          bool all_memory = true;
          bool any_computed = false;
          for (const auto& need : entry.needs) {
            const auto [envelope, cell_error] = envelope_of(need.hash);
            if (envelope == nullptr) {
              error = cell_error;
              break;
            }
            const auto tier = tiers.at(need.hash);
            all_memory = all_memory && tier == CacheTier::kMemory;
            any_computed = any_computed || tier == CacheTier::kComputed;
            const Json& result = envelope->at("result");
            Json row = Json::Object{};
            row.set("prior", envelope->at("prior"));
            row.set("model", envelope->at("model"));
            row.set("hash", need.hash);
            row.set("waic", result.at("waic").at("waic"));
            row.set("residual_mean",
                    result.at("posterior").at("summary").at("mean"));
            rows.emplace_back(result.at("waic").at("waic").as_double(),
                              std::move(row));
          }
          if (!error.empty()) {
            response = make_error(request.id, error);
            break;
          }
          std::stable_sort(rows.begin(), rows.end(),
                           [](const auto& a, const auto& b) {
                             return a.first < b.first;
                           });
          Json result = Json::Object{};
          Json::Array ranked;
          ranked.reserve(rows.size());
          for (auto& [waic, row] : rows) ranked.push_back(std::move(row));
          result.set("ranking", std::move(ranked));
          result.set("best", result.at("ranking").as_array().front());
          response = make_response(request, request_hash(request),
                                   std::move(result));
          info.cache_tag =
              all_memory ? to_string(CacheTier::kMemory)
                         : (any_computed ? to_string(CacheTier::kComputed)
                                         : to_string(CacheTier::kDisk));
          break;
        }
      }
    }

    info.ok = response.at("ok").as_bool();
    info.latency_us = batch_watch.elapsed_us();
    if (info.ok) {
      ++responses_ok_;
    } else {
      ++responses_error_;
    }
    if (!info.cache_tag.empty()) {
      if (info.cache_tag == to_string(CacheTier::kMemory)) ++memory_hits_;
      if (info.cache_tag == to_string(CacheTier::kDisk)) ++disk_hits_;
      if (info.cache_tag == to_string(CacheTier::kComputed)) ++computed_;
      record_latency(info.cache_tag, info.latency_us);
      if (options_.meta) {
        response.set("cache", info.cache_tag);
        response.set("latency_us", info.latency_us);
      }
    }
    info.line = response.dump();
    responses.push_back(std::move(info));
    ++since_summary_;
    maybe_write_summary();
  }
  return responses;
}

void Service::record_latency(const std::string& tag, std::int64_t us) {
  if (tag == to_string(CacheTier::kMemory)) {
    latency_memory_.record(us);
  } else if (tag == to_string(CacheTier::kDisk)) {
    latency_disk_.record(us);
  } else {
    latency_computed_.record(us);
  }
}

Json Service::stats_json() const {
  Json stats = Json::Object{};
  stats.set("requests_total", Json::from_unsigned(requests_total_));
  stats.set("responses_ok", Json::from_unsigned(responses_ok_));
  stats.set("responses_error", Json::from_unsigned(responses_error_));

  Json cache = Json::Object{};
  cache.set("memory_hits", Json::from_unsigned(memory_hits_));
  cache.set("disk_hits", Json::from_unsigned(disk_hits_));
  cache.set("computed", Json::from_unsigned(computed_));
  cache.set("dedup_shared", Json::from_unsigned(dedup_shared_));
  cache.set("evictions", Json::from_unsigned(cache_.evictions()));
  cache.set("size", Json::from_unsigned(cache_.size()));
  cache.set("capacity", Json::from_unsigned(cache_.capacity()));
  cache.set("disk_tier", cache_.has_disk_tier());
  stats.set("cache", std::move(cache));

  Json batches = Json::Object{};
  batches.set("count", Json::from_unsigned(batches_));
  batches.set("max_batch", Json::from_unsigned(max_batch_));
  stats.set("batches", std::move(batches));

  Json latency = Json::Object{};
  latency.set("computed", latency_computed_.summary());
  latency.set("hit", latency_memory_.summary());
  latency.set("disk", latency_disk_.summary());
  stats.set("latency", std::move(latency));
  return stats;
}

void Service::maybe_write_summary() {
  if (options_.summary_every == 0 || options_.summary_out == nullptr) return;
  if (since_summary_ < options_.summary_every) return;
  since_summary_ = 0;
  const std::uint64_t answered = memory_hits_ + disk_hits_ + computed_;
  const double hit_rate =
      answered == 0
          ? 0.0
          : static_cast<double>(memory_hits_ + disk_hits_) /
                static_cast<double>(answered);
  *options_.summary_out
      << "[serve] requests=" << support::dec(requests_total_)
      << " hit=" << support::dec(memory_hits_)
      << " disk=" << support::dec(disk_hits_)
      << " computed=" << support::dec(computed_)
      << " hit_rate=" << support::fixed(hit_rate, 3)
      << " lru=" << support::dec(cache_.size()) << "/"
      << support::dec(cache_.capacity())
      << " evictions=" << support::dec(cache_.evictions())
      << " max_batch=" << support::dec(max_batch_) << "\n";
}

}  // namespace srm::serve
