// Tests for the CLI flag parser.
#include "cli/args.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

using srm::cli::Args;

TEST(Args, ParsesValuesAndSwitches) {
  const auto args = Args::parse({"--csv", "file.csv", "--jeffreys",
                                 "--days", "48"});
  EXPECT_EQ(args.require_string("csv"), "file.csv");
  EXPECT_TRUE(args.has("jeffreys"));
  EXPECT_EQ(args.get_int("days", 0), 48);
  EXPECT_TRUE(args.unused().empty());
}

TEST(Args, FallbacksWhenAbsent) {
  const auto args = Args::parse({});
  EXPECT_EQ(args.get_string("prior", "poisson"), "poisson");
  EXPECT_DOUBLE_EQ(args.get_double("lambda-max", 2000.0), 2000.0);
  EXPECT_EQ(args.get_int("chains", 2), 2);
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, NumericValidation) {
  const auto args = Args::parse({"--days", "abc", "--rate", "1.5"});
  EXPECT_THROW((void)args.get_int("days", 0), srm::InvalidArgument);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 1.5);
}

TEST(Args, GetSizeParsesNonNegativeCounts) {
  const auto args = Args::parse({"--threads", "4", "--zero", "0"});
  EXPECT_EQ(args.get_size("threads", 1), 4u);
  EXPECT_EQ(args.get_size("zero", 1), 0u);
  EXPECT_EQ(args.get_size("absent", 7), 7u);
}

TEST(Args, GetSizeRejectsNegativeValues) {
  const auto args = Args::parse({"--threads", "-2"});
  EXPECT_THROW((void)args.get_size("threads", 0), srm::InvalidArgument);
}

TEST(Args, SwitchBeforeAFlagTakesNoValue) {
  const auto with = Args::parse({"--jeffreys", "--chains", "4"});
  EXPECT_TRUE(with.has("jeffreys"));
  EXPECT_EQ(with.get_size("chains", 2), 4u);
  EXPECT_TRUE(with.unused().empty());
  const auto without = Args::parse({"--chains", "4"});
  EXPECT_FALSE(without.has("jeffreys"));
}

TEST(Args, ThinParsesAsPositiveCount) {
  const auto args = Args::parse({"--thin", "5"});
  EXPECT_EQ(args.get_size("thin", 1), 5u);
  EXPECT_TRUE(args.unused().empty());
  const auto absent = Args::parse({});
  EXPECT_EQ(absent.get_size("thin", 1), 1u);
  const auto negative = Args::parse({"--thin", "-3"});
  EXPECT_THROW((void)negative.get_size("thin", 1), srm::InvalidArgument);
}

TEST(Args, RequiredFlagMissingThrows) {
  const auto args = Args::parse({"--other", "x"});
  EXPECT_THROW(args.require_string("csv"), srm::InvalidArgument);
}

TEST(Args, MalformedTokensThrow) {
  EXPECT_THROW(Args::parse({"positional"}), srm::InvalidArgument);
  EXPECT_THROW(Args::parse({"--dup", "1", "--dup", "2"}),
               srm::InvalidArgument);
  EXPECT_THROW(Args::parse({"--"}), srm::InvalidArgument);
}

TEST(Args, UnusedTracksUnreadFlags) {
  const auto args = Args::parse({"--read", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("read", 0), 1);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

}  // namespace
