#include "artifact/store.hpp"

#include <fstream>
#include <utility>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::artifact {

namespace {

using support::Json;

}  // namespace

ArtifactStore::ArtifactStore(std::filesystem::path dir,
                             const data::BugCountData& base,
                             const report::SweepOptions& options, bool resume)
    : dir_(std::move(dir)),
      cells_(dir_),
      base_(base),
      sweep_hash_(sweep_hash(base, options)),
      options_json_(to_json(options)) {
  SRM_EXPECTS(!options.observation_days.empty(),
              "an artifact store needs at least one observation day");

  // Lay the grid out exactly as run_sweep does (both derive it from
  // report::sweep_grid), so slot order — and with it the manifest's cell
  // order and budget semantics — matches plan order.
  for (const auto& [prior, model] : report::sweep_grid()) {
    core::ExperimentSpec spec;
    spec.prior = prior;
    spec.model = model;
    spec.config = options.config_for(prior, model);
    spec.gibbs = options.gibbs;
    spec.observation_days = options.observation_days;
    spec.eventual_total = options.eventual_total;
    for (const auto day : options.observation_days) {
      CellSlot slot;
      slot.hash = cell_hash(base_, spec, day);
      slot.prior = core::to_string(prior);
      slot.model = core::to_string(model);
      slot.observation_day = day;
      slots_.push_back(std::move(slot));
    }
  }

  const auto manifest_path = dir_ / "manifest.json";
  if (std::filesystem::exists(manifest_path)) {
    SRM_EXPECTS(resume,
                "artifact directory " + dir_.string() +
                    " already holds a manifest; pass --resume to continue it");
    const Json manifest = Json::parse(read_text_file(manifest_path));
    const auto schema = manifest.at("schema_version").as_int();
    if (schema != kSchemaVersion) {
      throw InvalidArgument("artifact directory " + dir_.string() +
                            " has schema version " + support::dec(schema) +
                            ", this build expects " +
                            support::dec(kSchemaVersion));
    }
    const auto& stored_hash = manifest.at("sweep_hash").as_string();
    if (stored_hash != sweep_hash_) {
      throw InvalidArgument(
          "artifact directory " + dir_.string() +
          " was produced by a different sweep configuration (stored sweep "
          "hash " +
          stored_hash + ", requested " + sweep_hash_ + ")");
    }
  }

  for (auto& slot : slots_) {
    slot.done = cells_.contains(slot.hash);
    if (slot.done) ++preexisting_;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  write_manifest_locked(all_cells_done() &&
                        std::filesystem::exists(dir_ / "sweep.json"));
}

ArtifactStore::Plan ArtifactStore::plan(const core::ExperimentSpec& spec,
                                        std::size_t observation_day,
                                        core::ObservationResult& reuse_out) {
  const std::string hash = cell_hash(base_, spec, observation_day);
  const CellSlot* slot = nullptr;
  for (const auto& candidate : slots_) {
    if (candidate.hash == hash) slot = &candidate;
  }
  SRM_EXPECTS(slot != nullptr,
              "planned cell " + hash + " is not part of this artifact's sweep");
  if (slot->done) {
    const auto cell = cells_.load(hash);
    SRM_EXPECTS(cell.has_value(),
                "artifact cell " + cells_.cell_path(hash).string() +
                    " disappeared between planning and reuse");
    reuse_out = observation_result_from_json(cell->at("result"));
    return Plan::kReuse;
  }
  if (budget_ != 0 && fresh_planned_ >= budget_) return Plan::kSkip;
  ++fresh_planned_;
  return Plan::kCompute;
}

void ArtifactStore::on_computed(const core::ExperimentSpec& spec,
                                std::size_t observation_day,
                                const core::ObservationResult& result) {
  const std::string hash = cell_hash(base_, spec, observation_day);
  const std::lock_guard<std::mutex> lock(mutex_);
  CellSlot* slot = nullptr;
  for (auto& candidate : slots_) {
    if (candidate.hash == hash) slot = &candidate;
  }
  SRM_EXPECTS(slot != nullptr,
              "computed cell " + hash +
                  " is not part of this artifact's sweep");

  cells_.save(hash, cell_envelope(hash, spec.prior, spec.model,
                                  observation_day, result));

  slot->done = true;
  ++sampled_;
  write_manifest_locked(false);
}

void ArtifactStore::finalize(const report::SweepResult& sweep) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SRM_EXPECTS(all_cells_done(),
              "cannot finalize a partial artifact directory (skipped cells "
              "remain; rerun with --resume and no budget)");
  write_file_atomic(dir_ / "sweep.json", to_json(sweep).dump(2));
  write_manifest_locked(true);
}

void ArtifactStore::record_run(const report::SweepExecution& execution) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto runs_path = dir_ / "runs.json";
  Json runs = Json::Array{};
  if (std::filesystem::exists(runs_path)) {
    runs = Json::parse(read_text_file(runs_path));
  }
  Json entry = Json::Object{};
  entry.set("cells_total", Json::from_unsigned(execution.cells_total));
  entry.set("cells_reused", Json::from_unsigned(execution.cells_reused));
  entry.set("cells_sampled", Json::from_unsigned(sampled_));
  entry.set("cells_skipped", Json::from_unsigned(execution.cells_skipped));
  entry.set("complete", execution.complete());
  runs.push_back(std::move(entry));
  write_file_atomic(runs_path, runs.dump(2));
}

std::size_t ArtifactStore::cells_sampled_this_run() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sampled_;
}

bool ArtifactStore::all_cells_done() const {
  for (const auto& slot : slots_) {
    if (!slot.done) return false;
  }
  return true;
}

void ArtifactStore::write_manifest_locked(bool finalized) const {
  Json manifest = Json::Object{};
  manifest.set("schema_version", kSchemaVersion);
  manifest.set("library_version", kLibraryVersion);
  manifest.set("sweep_hash", sweep_hash_);

  Json dataset = Json::Object{};
  dataset.set("name", base_.name());
  dataset.set("days", Json::from_unsigned(base_.days()));
  dataset.set("total", base_.total());
  Json::Array counts;
  counts.reserve(base_.days());
  for (const auto count : base_.counts()) counts.push_back(count);
  dataset.set("counts", std::move(counts));
  manifest.set("dataset", std::move(dataset));

  manifest.set("options", options_json_);
  manifest.set("status", finalized ? "complete" : "partial");
  manifest.set("cells_total", Json::from_unsigned(slots_.size()));
  std::size_t done = 0;
  Json::Array cells;
  cells.reserve(slots_.size());
  for (const auto& slot : slots_) {
    if (slot.done) ++done;
    Json entry = Json::Object{};
    entry.set("hash", slot.hash);
    entry.set("prior", slot.prior);
    entry.set("model", slot.model);
    entry.set("observation_day", Json::from_unsigned(slot.observation_day));
    entry.set("file", "cells/" + slot.hash + ".json");
    entry.set("status", slot.done ? "done" : "pending");
    cells.push_back(std::move(entry));
  }
  manifest.set("cells_done", Json::from_unsigned(done));
  manifest.set("cells", std::move(cells));
  write_file_atomic(dir_ / "manifest.json", manifest.dump(2));
}

report::SweepResult ArtifactStore::load_sweep(
    const std::filesystem::path& dir) {
  const auto path = dir / "sweep.json";
  SRM_EXPECTS(std::filesystem::exists(path),
              "no sweep.json in " + dir.string() +
                  " — the artifact directory was never finalized");
  return sweep_result_from_json(Json::parse(read_text_file(path)));
}

}  // namespace srm::artifact
