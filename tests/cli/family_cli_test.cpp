// Registry-driven CLI surface: family ids parse on every subcommand,
// unknown ids fail with the accepted list, the `families` subcommand
// renders the registry, and the size-biased family works end to end
// through fit and joins the select grid.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.hpp"
#include "core/model_family.hpp"

namespace {

namespace core = srm::core;
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

TEST(CliFamilies, UnknownPriorIsAStructuredError) {
  const auto result =
      run("fit", {"--csv", "sys1", "--prior", "klingon"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("klingon"), std::string::npos) << result.err;
  // The error names every accepted family id, straight from the registry.
  EXPECT_NE(result.err.find(core::family_ids_joined()), std::string::npos)
      << result.err;
}

TEST(CliFamilies, ModelOutsideTheFamilyGridIsRejected) {
  const auto foreign = run("fit", {"--csv", "sys1", "--prior", "sizebiased",
                                   "--model", "model0"});
  EXPECT_EQ(foreign.code, 2);
  EXPECT_NE(foreign.err.find("multinomial"), std::string::npos)
      << foreign.err;

  const auto unknown = run("fit", {"--csv", "sys1", "--model", "bogus"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("bogus"), std::string::npos) << unknown.err;
}

TEST(CliFamilies, FamiliesSubcommandListsTheRegistry) {
  const auto result = run("families", {});
  EXPECT_EQ(result.code, 0) << result.err;
  for (const auto& family : core::model_families().families()) {
    EXPECT_NE(result.out.find(family.id), std::string::npos) << family.id;
    EXPECT_NE(result.out.find(family.display_name), std::string::npos)
        << family.id;
  }
}

TEST(CliFamilies, FamiliesMarkdownIsTheRendererOutputExactly) {
  const auto result = run("families", {"--format", "markdown"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out, core::render_family_table_markdown());
}

TEST(CliFamilies, SizeBiasedFitsEndToEnd) {
  const auto result =
      run("fit", {"--csv", "sys1", "--days", "48", "--prior", "sizebiased",
                  "--iterations", "300", "--burn-in", "100"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("residual bug posterior"), std::string::npos);
  EXPECT_NE(result.out.find("WAIC"), std::string::npos);
}

TEST(CliFamilies, SelectGridIncludesTheSizeBiasedFamily) {
  const auto result =
      run("select", {"--csv", "sys1", "--days", "30", "--iterations", "80",
                     "--burn-in", "40"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("sizebiased"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("multinomial"), std::string::npos) << result.out;
  EXPECT_NE(result.out.find("pBMA weight"), std::string::npos) << result.out;
}

}  // namespace
