// Tests for MCMC trace storage.
#include "mcmc/trace.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace {

using srm::mcmc::ChainTrace;
using srm::mcmc::McmcRun;

TEST(ChainTrace, AppendsAndReadsBack) {
  ChainTrace trace(2);
  trace.append(std::vector<double>{1.0, 2.0});
  trace.append(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_EQ(trace.parameter_count(), 2u);
  const auto p0 = trace.parameter(0);
  ASSERT_EQ(p0.size(), 2u);
  EXPECT_DOUBLE_EQ(p0[0], 1.0);
  EXPECT_DOUBLE_EQ(p0[1], 3.0);
  EXPECT_DOUBLE_EQ(trace.parameter(1)[1], 4.0);
}

TEST(ChainTrace, WrongWidthThrows) {
  ChainTrace trace(2);
  EXPECT_THROW(trace.append(std::vector<double>{1.0}), srm::InvalidArgument);
}

TEST(ChainTrace, OutOfRangeParameterThrows) {
  ChainTrace trace(2);
  EXPECT_THROW((void)trace.parameter(2), srm::InvalidArgument);
}

TEST(ChainTrace, ReservePreservesContentsAndCounts) {
  ChainTrace trace(2);
  trace.append(std::vector<double>{1.0, 10.0});
  trace.reserve(100);
  EXPECT_EQ(trace.sample_count(), 1u);
  trace.append(std::vector<double>{2.0, 20.0});
  EXPECT_EQ(trace.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(trace.parameter(0)[1], 2.0);
  EXPECT_DOUBLE_EQ(trace.parameter(1)[1], 20.0);
}

TEST(McmcRun, PooledConcatenatesChainsInOrder) {
  McmcRun run({"a", "b"}, 2);
  run.accumulate(0, std::vector<double>{1.0, 10.0}, nullptr);
  run.accumulate(0, std::vector<double>{2.0, 20.0}, nullptr);
  run.accumulate(1, std::vector<double>{3.0, 30.0}, nullptr);
  const auto pooled = run.pooled("a");
  ASSERT_EQ(pooled.size(), 3u);
  EXPECT_DOUBLE_EQ(pooled[0], 1.0);
  EXPECT_DOUBLE_EQ(pooled[1], 2.0);
  EXPECT_DOUBLE_EQ(pooled[2], 3.0);
  EXPECT_EQ(run.total_samples(), 3u);
}

TEST(McmcRun, ParameterIndexLookup) {
  McmcRun run({"residual", "lambda0", "mu"}, 1);
  EXPECT_EQ(run.parameter_index("lambda0"), 1u);
  EXPECT_THROW((void)run.parameter_index("nonexistent"),
               srm::InvalidArgument);
}

TEST(McmcRun, RequiresParametersAndChains) {
  EXPECT_THROW(McmcRun({}, 1), srm::InvalidArgument);
  EXPECT_THROW(McmcRun({"x"}, 0), srm::InvalidArgument);
}

}  // namespace
