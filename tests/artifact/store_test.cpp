// The resumable-artifact contract, end to end: an interrupted (budgeted)
// sweep plus a resume produces an artifact directory byte-identical to an
// uninterrupted run (runs.json excepted — it is the run log that PROVES the
// resumed run re-sampled only the missing cells), results replay
// bit-identically, and incompatible directories are rejected loudly.
#include "artifact/store.hpp"

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "artifact/serialize.hpp"
#include "artifact/spec_hash.hpp"
#include "runtime/thread_pool.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

namespace fs = std::filesystem;
namespace artifact = srm::artifact;
namespace core = srm::core;
namespace report = srm::report;

using srm::support::Json;

srm::data::BugCountData toy() {
  return srm::data::BugCountData("toy", {1, 0, 2, 1, 3, 0, 1, 2, 0, 1});
}

report::SweepOptions toy_options() {
  report::SweepOptions options;
  options.observation_days = {5, 8};
  options.eventual_total = 12;
  options.gibbs.chain_count = 2;
  options.gibbs.burn_in = 10;
  options.gibbs.iterations = 60;
  options.gibbs.seed = 99;
  return options;
}

/// Fresh scratch directory under the system temp dir.
fs::path scratch(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("srm_store_test_" + name);
  fs::remove_all(dir);
  return dir;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Relative path -> file content for every regular file, minus runs.json.
std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto rel = fs::relative(entry.path(), dir).string();
    if (rel == "runs.json") continue;
    files[rel] = slurp(entry.path());
  }
  return files;
}

TEST(ArtifactStore, UninterruptedSweepFinalizesAndReloads) {
  const auto dir = scratch("plain");
  const auto data = toy();
  const auto options = toy_options();
  artifact::ArtifactStore store(dir, data, options, /*resume=*/false);
  report::SweepExecution exec;
  const auto sweep = report::run_sweep(data, options, &store, &exec);
  EXPECT_TRUE(exec.complete());
  EXPECT_EQ(exec.cells_total, 20u);
  EXPECT_EQ(exec.cells_computed, 20u);
  EXPECT_EQ(exec.cells_reused, 0u);
  store.record_run(exec);
  store.finalize(sweep);

  EXPECT_TRUE(fs::exists(dir / "manifest.json"));
  EXPECT_TRUE(fs::exists(dir / "sweep.json"));
  const Json manifest = Json::parse(slurp(dir / "manifest.json"));
  EXPECT_EQ(manifest.at("schema_version").as_int(), artifact::kSchemaVersion);
  EXPECT_EQ(manifest.at("status").as_string(), "complete");
  EXPECT_EQ(manifest.at("cells_done").as_unsigned(), 20u);
  EXPECT_EQ(manifest.at("sweep_hash").as_string(),
            artifact::sweep_hash(data, options));

  // load_sweep round-trips the assembled result bit-exactly.
  const auto reloaded = artifact::ArtifactStore::load_sweep(dir);
  EXPECT_EQ(artifact::to_json(reloaded).dump(2),
            artifact::to_json(sweep).dump(2));
  fs::remove_all(dir);
}

TEST(ArtifactStore, InterruptedThenResumedIsByteIdentical) {
  const auto data = toy();
  const auto options = toy_options();

  // Reference: one uninterrupted run.
  const auto dir_a = scratch("full");
  {
    artifact::ArtifactStore store(dir_a, data, options, /*resume=*/false);
    report::SweepExecution exec;
    const auto sweep = report::run_sweep(data, options, &store, &exec);
    store.record_run(exec);
    store.finalize(sweep);
  }

  // Candidate: a run budgeted to 7 fresh cells, then a resume.
  const auto dir_b = scratch("resumed");
  std::string partial_dump;
  {
    artifact::ArtifactStore store(dir_b, data, options, /*resume=*/false);
    store.set_max_fresh_cells(7);
    report::SweepExecution exec;
    const auto partial = report::run_sweep(data, options, &store, &exec);
    EXPECT_FALSE(exec.complete());
    EXPECT_EQ(exec.cells_computed, 7u);
    EXPECT_EQ(exec.cells_skipped, 13u);
    EXPECT_EQ(store.cells_sampled_this_run(), 7u);
    store.record_run(exec);
    // A partial result must not be finalized.
    EXPECT_THROW(store.finalize(partial), srm::InvalidArgument);
  }
  {
    artifact::ArtifactStore store(dir_b, data, options, /*resume=*/true);
    EXPECT_EQ(store.cells_preexisting(), 7u);
    report::SweepExecution exec;
    const auto sweep = report::run_sweep(data, options, &store, &exec);
    EXPECT_TRUE(exec.complete());
    EXPECT_EQ(exec.cells_reused, 7u);
    EXPECT_EQ(exec.cells_computed, 13u);
    // The store's own counter proves the 7 completed cells were NOT
    // re-sampled on resume.
    EXPECT_EQ(store.cells_sampled_this_run(), 13u);
    store.record_run(exec);
    store.finalize(sweep);
    partial_dump = artifact::to_json(sweep).dump(2);
  }

  // File-by-file byte identity (runs.json excluded by design).
  EXPECT_EQ(snapshot(dir_a), snapshot(dir_b));
  // And the assembled SweepResult matches the uninterrupted run's bytes.
  EXPECT_EQ(partial_dump, slurp(dir_b / "sweep.json"));

  // runs.json records the interruption history: 7 sampled then 13 sampled
  // with 7 reused.
  const Json runs = Json::parse(slurp(dir_b / "runs.json"));
  ASSERT_EQ(runs.as_array().size(), 2u);
  EXPECT_EQ(runs.as_array()[0].at("cells_sampled").as_unsigned(), 7u);
  EXPECT_EQ(runs.as_array()[0].at("complete").as_bool(), false);
  EXPECT_EQ(runs.as_array()[1].at("cells_reused").as_unsigned(), 7u);
  EXPECT_EQ(runs.as_array()[1].at("cells_sampled").as_unsigned(), 13u);
  EXPECT_EQ(runs.as_array()[1].at("complete").as_bool(), true);

  fs::remove_all(dir_a);
  fs::remove_all(dir_b);
}

TEST(ArtifactStore, ArtifactBytesIdenticalForAnyThreadCount) {
  const auto data = toy();
  const auto options = toy_options();
  const auto dir_serial = scratch("serial");
  const auto dir_parallel = scratch("parallel");

  srm::runtime::ThreadPool::set_global_thread_count(1);
  {
    artifact::ArtifactStore store(dir_serial, data, options, false);
    report::SweepExecution exec;
    const auto sweep = report::run_sweep(data, options, &store, &exec);
    store.record_run(exec);
    store.finalize(sweep);
  }
  srm::runtime::ThreadPool::set_global_thread_count(4);
  {
    artifact::ArtifactStore store(dir_parallel, data, options, false);
    report::SweepExecution exec;
    const auto sweep = report::run_sweep(data, options, &store, &exec);
    store.record_run(exec);
    store.finalize(sweep);
  }
  srm::runtime::ThreadPool::set_global_thread_count(0);

  EXPECT_EQ(snapshot(dir_serial), snapshot(dir_parallel));
  fs::remove_all(dir_serial);
  fs::remove_all(dir_parallel);
}

TEST(ArtifactStore, RefusesFreshOpenOnExistingDirectory) {
  const auto dir = scratch("no_overwrite");
  const auto data = toy();
  const auto options = toy_options();
  { artifact::ArtifactStore store(dir, data, options, false); }
  EXPECT_THROW(artifact::ArtifactStore(dir, data, options, false),
               srm::InvalidArgument);
  // With resume it opens fine.
  artifact::ArtifactStore resumed(dir, data, options, true);
  EXPECT_EQ(resumed.cells_preexisting(), 0u);
  fs::remove_all(dir);
}

TEST(ArtifactStore, RejectsResumeWithDifferentConfiguration) {
  const auto dir = scratch("mismatch");
  const auto data = toy();
  const auto options = toy_options();
  { artifact::ArtifactStore store(dir, data, options, false); }
  auto changed = options;
  changed.gibbs.seed += 1;
  EXPECT_THROW(artifact::ArtifactStore(dir, data, changed, true),
               srm::InvalidArgument);
  // Execution-only knobs are not part of the identity: resuming with a
  // different parallel_chains setting is allowed.
  auto execution_only = options;
  execution_only.gibbs.parallel_chains = !options.gibbs.parallel_chains;
  artifact::ArtifactStore ok(dir, data, execution_only, true);
  EXPECT_EQ(ok.hash(), artifact::sweep_hash(data, options));
  fs::remove_all(dir);
}

TEST(ArtifactStore, ManifestWithTraceRetentionMemberLoadsAndResumes) {
  // Manifests written while Gibbs options still had a trace-retention
  // switch carry it in options.gibbs. It never changed a result, so such a
  // directory still loads and resumes, and the rewritten manifest drops it.
  const auto dir = scratch("retention_member");
  const auto data = toy();
  const auto options = toy_options();
  {
    artifact::ArtifactStore store(dir, data, options, /*resume=*/false);
    store.set_max_fresh_cells(7);
    report::SweepExecution exec;
    report::run_sweep(data, options, &store, &exec);
    store.record_run(exec);
  }
  Json manifest = Json::parse(slurp(dir / "manifest.json"));
  Json options_json = manifest.at("options");
  Json gibbs = options_json.at("gibbs");
  gibbs.set("keep_traces", false);
  options_json.set("gibbs", std::move(gibbs));
  manifest.set("options", std::move(options_json));
  std::ofstream(dir / "manifest.json") << manifest.dump(2);

  const auto loaded = artifact::sweep_options_from_json(
      Json::parse(slurp(dir / "manifest.json")).at("options"));
  EXPECT_EQ(artifact::to_json(loaded).dump(),
            artifact::to_json(options).dump());
  EXPECT_EQ(artifact::sweep_hash(data, loaded),
            manifest.at("sweep_hash").as_string());

  artifact::ArtifactStore store(dir, data, options, /*resume=*/true);
  EXPECT_EQ(store.cells_preexisting(), 7u);
  report::SweepExecution exec;
  const auto sweep = report::run_sweep(data, options, &store, &exec);
  EXPECT_TRUE(exec.complete());
  EXPECT_EQ(exec.cells_reused, 7u);
  EXPECT_EQ(exec.cells_computed, 13u);
  store.finalize(sweep);
  const Json rewritten = Json::parse(slurp(dir / "manifest.json"));
  EXPECT_EQ(rewritten.at("options").at("gibbs").find("keep_traces"), nullptr);
  fs::remove_all(dir);
}

TEST(ArtifactStore, LoadSweepWithoutFinalizeThrows) {
  const auto dir = scratch("unfinalized");
  const auto data = toy();
  const auto options = toy_options();
  { artifact::ArtifactStore store(dir, data, options, false); }
  EXPECT_THROW(artifact::ArtifactStore::load_sweep(dir), srm::InvalidArgument);
  fs::remove_all(dir);
}

}  // namespace
