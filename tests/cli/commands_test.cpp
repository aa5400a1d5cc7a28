// End-to-end tests of the CLI subcommands (via the dispatch function, so
// the binary's plumbing is covered without spawning processes).
#include "cli/commands.hpp"

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using srm::cli::dispatch;

struct RunResult {
  int code;
  std::string out;
  std::string err;
};

RunResult run(const std::string& command,
              const std::vector<std::string>& flags) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = dispatch(command, flags, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, FitOnEmbeddedDataset) {
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "400", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("residual bug posterior"), std::string::npos);
  EXPECT_NE(result.out.find("WAIC"), std::string::npos);
  EXPECT_NE(result.out.find("PSRF"), std::string::npos);
}

TEST(Cli, ThinReducesRetainedDraws) {
  // --thin N keeps every Nth scan; the report still renders (and differs
  // from the unthinned chain, since the retained draws differ).
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "100", "--burn-in", "50", "--thin", "3"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("residual bug posterior"), std::string::npos);
}

TEST(Cli, MleOnNtds) {
  const auto result = run("mle", {"--csv", "ntds"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("AIC"), std::string::npos);
  EXPECT_NE(result.out.find("model1"), std::string::npos);
}

TEST(Cli, NhppBaseline) {
  const auto result = run("nhpp", {"--csv", "sys1", "--days", "48"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("goel-okumoto"), std::string::npos);
  EXPECT_NE(result.out.find("R(1 day)"), std::string::npos);
}

TEST(Cli, SimulateRoundTripsThroughCsv) {
  const auto path =
      (std::filesystem::temp_directory_path() / "srm_cli_sim.csv").string();
  const auto sim =
      run("simulate", {"--bugs", "80", "--days", "20", "--model", "model0",
                       "--mu", "0.1", "--seed", "7", "--out", path});
  EXPECT_EQ(sim.code, 0) << sim.err;
  // Feed the simulated file back through the MLE command.
  const auto mle = run("mle", {"--csv", path});
  EXPECT_EQ(mle.code, 0) << mle.err;
  std::filesystem::remove(path);
}

TEST(Cli, SimulateRequiresModelParameters) {
  const auto result = run("simulate", {"--bugs", "80", "--days", "20",
                                       "--model", "model1", "--mu", "0.9"});
  EXPECT_EQ(result.code, 2);  // missing --theta
  EXPECT_NE(result.err.find("theta"), std::string::npos);
}

TEST(Cli, PredictScoresHoldout) {
  const auto result =
      run("predict", {"--csv", "sys1", "--fit-days", "48", "--iterations",
                      "400", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("log predictive score"), std::string::npos);
}

TEST(Cli, ExtendedModelsSelectable) {
  const auto result =
      run("fit", {"--csv", "ntds", "--model", "model6", "--iterations",
                  "300", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("model6"), std::string::npos);
}

TEST(Cli, ReleasePlansOptimalDay) {
  const auto result =
      run("release", {"--csv", "ntds", "--day-cost", "2", "--bug-cost", "40",
                      "--horizon", "10", "--iterations", "400", "--burn-in",
                      "100", "--model", "model0"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("optimal release: day"), std::string::npos);
  EXPECT_NE(result.out.find("E[cost]"), std::string::npos);
}

TEST(Cli, SweepRendersPaperTables) {
  const auto result =
      run("sweep", {"--csv", "sys1", "--obs-days", "48", "--iterations", "60",
                    "--burn-in", "20"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("TABLE I: Comparison of WAIC."), std::string::npos);
  EXPECT_NE(result.out.find("mean values of the posterior"),
            std::string::npos);
  EXPECT_NE(result.out.find("standard deviations"), std::string::npos);
}

TEST(Cli, SweepCsvFormat) {
  const auto result =
      run("sweep", {"--csv", "sys1", "--obs-days", "48", "--iterations", "60",
                    "--burn-in", "20", "--format", "csv"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("prior,model,observation_day", 0), 0u);
  EXPECT_NE(result.out.find("poisson,model0,48"), std::string::npos);
}

TEST(Cli, SweepArtifactsInterruptAndResume) {
  const auto dir = (std::filesystem::temp_directory_path() /
                    "srm_cli_sweep_artifacts")
                       .string();
  std::filesystem::remove_all(dir);
  const std::vector<std::string> base{"--csv",  "sys1", "--obs-days", "48",
                                      "--iterations", "60", "--burn-in", "20",
                                      "--out", dir};
  // Budgeted run: exit code 3 marks the partial sweep, no tables printed.
  auto budgeted = base;
  budgeted.insert(budgeted.end(), {"--max-cells", "4"});
  const auto partial = run("sweep", budgeted);
  EXPECT_EQ(partial.code, 3) << partial.err;
  EXPECT_NE(partial.out.find("partial sweep: 4/10"), std::string::npos);
  EXPECT_EQ(partial.out.find("TABLE I"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(dir) /
                                       "sweep.json"));

  // Without --resume the directory is protected.
  const auto refused = run("sweep", base);
  EXPECT_EQ(refused.code, 2);
  EXPECT_NE(refused.err.find("--resume"), std::string::npos);

  // Resume completes the grid and renders the tables.
  auto resumed_flags = base;
  resumed_flags.push_back("--resume");
  const auto resumed = run("sweep", resumed_flags);
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("TABLE I"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) /
                                      "sweep.json"));
  std::filesystem::remove_all(dir);
}

TEST(Cli, SweepRejectsBudgetWithoutOut) {
  const auto result = run("sweep", {"--csv", "sys1", "--obs-days", "48",
                                    "--max-cells", "4"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--out"), std::string::npos);
}

TEST(Cli, ModelErrorListsRegistryNames) {
  const auto result = run("fit", {"--csv", "sys1", "--model", "model99"});
  EXPECT_EQ(result.code, 2);
  // The error text is derived from the detection-model registry.
  EXPECT_NE(result.err.find("model0"), std::string::npos);
  EXPECT_NE(result.err.find("model6"), std::string::npos);
  EXPECT_NE(result.err.find("multinomial"), std::string::npos);
}

TEST(Cli, FitJsonFormat) {
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--model", "model1",
                  "--iterations", "100", "--burn-in", "50", "--format",
                  "json"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("\"observation_day\": 48"), std::string::npos);
  EXPECT_NE(result.out.find("\"psrf\""), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run("frobnicate", {});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("usage"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  struct Case {
    std::string command;
    std::vector<std::string> flags;
    std::string unknown;
  };
  const std::vector<Case> cases = {
      {"mle", {"--csv", "ntds", "--bogus", "1"}, "bogus"},
      {"fit",
       {"--csv", "sys1", "--days", "20", "--burn-in", "5", "--iterations",
        "20", "--vectorized"},
       "vectorized"},
      {"fit",
       {"--csv", "sys1", "--days", "20", "--burn-in", "5", "--iterations",
        "20", "--chain-lanes"},
       "chain-lanes"},
      // Draws are stored only by attaching a run as a sink; the retention
      // switch is gone from every command that had it.
      {"fit",
       {"--csv", "sys1", "--days", "20", "--burn-in", "5", "--iterations",
        "20", "--keep-traces"},
       "keep-traces"},
      {"select",
       {"--csv", "sys1", "--days", "20", "--burn-in", "5", "--iterations",
        "20", "--keep-traces"},
       "keep-traces"},
      {"sweep",
       {"--csv", "sys1", "--obs-days", "20", "--burn-in", "5",
        "--iterations", "20", "--keep-traces"},
       "keep-traces"},
  };
  for (const auto& c : cases) {
    const auto result = run(c.command, c.flags);
    EXPECT_EQ(result.code, 2) << c.unknown;
    EXPECT_NE(result.err.find(c.unknown), std::string::npos) << result.err;
  }
}

TEST(Cli, NegativeCountFlagsExitTwo) {
  // Count flags are read as non-negative sizes: a negative value is an
  // error naming the flag, never a wrapped-around size_t. A zero --days or
  // --horizon is refused the same way, before any sampling.
  struct Case {
    std::string command;
    std::vector<std::string> flags;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {"release", {"--csv", "sys1", "--horizon", "-1"}, "--horizon"},
      {"release", {"--csv", "sys1", "--horizon", "0"}, "--horizon"},
      {"simulate", {"--days", "-1", "--mu", "0.1"}, "--days"},
      {"fit", {"--csv", "sys1", "--days", "-3"}, "--days"},
      {"fit", {"--csv", "sys1", "--days", "0"}, "--days"},
      {"predict", {"--csv", "sys1", "--fit-days", "-1"}, "--fit-days"},
  };
  for (const auto& c : cases) {
    const auto result = run(c.command, c.flags);
    EXPECT_EQ(result.code, 2) << c.command << " " << c.flag;
    EXPECT_NE(result.err.find(c.flag), std::string::npos) << result.err;
  }
}

TEST(Cli, FitRejectsChainsTooShortForGeweke) {
  // Geweke's 10% window needs 4 draws, so a fit needs 40 retained draws
  // per chain; a shorter request is refused as a user error naming that
  // minimum.
  const auto result =
      run("fit", {"--csv", "sys1", "--iterations", "30", "--burn-in", "5"});
  EXPECT_EQ(result.code, 2) << result.out;
  EXPECT_NE(result.err.find("40"), std::string::npos) << result.err;
  EXPECT_EQ(result.err.find("internal invariant"), std::string::npos)
      << result.err;
}

TEST(Cli, MissingCsvFails) {
  const auto result = run("fit", {});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("csv"), std::string::npos);
}

}  // namespace
