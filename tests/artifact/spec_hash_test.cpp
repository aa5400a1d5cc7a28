// The cell/sweep identity contract: hashes are stable, cover exactly the
// result-determining inputs, and ignore execution-only knobs.
#include "artifact/spec_hash.hpp"

#include <gtest/gtest.h>

namespace {

namespace artifact = srm::artifact;
namespace core = srm::core;
namespace data = srm::data;

core::ExperimentSpec base_spec() {
  core::ExperimentSpec spec;
  spec.prior = core::PriorKind::kPoisson;
  spec.model = core::DetectionModelKind::kPadgettSpurrier;
  spec.gibbs.chain_count = 2;
  spec.gibbs.burn_in = 100;
  spec.gibbs.iterations = 400;
  spec.gibbs.seed = 20240624;
  spec.observation_days = {5, 8};
  spec.eventual_total = 12;
  return spec;
}

data::BugCountData toy() {
  return data::BugCountData("toy", {1, 0, 2, 1, 3, 0, 1, 2, 0, 1});
}

TEST(SpecHash, Fnv1aMatchesReferenceConstants) {
  // Empty input returns the offset basis; a known vector pins the prime.
  EXPECT_EQ(artifact::fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(artifact::fnv1a64("a"),
            (14695981039346656037ULL ^ 0x61ULL) * 1099511628211ULL);
}

TEST(SpecHash, Hex64PadsToSixteenDigits) {
  EXPECT_EQ(artifact::hex64(0), "0000000000000000");
  EXPECT_EQ(artifact::hex64(0xabcULL), "0000000000000abc");
  EXPECT_EQ(artifact::hex64(0xffffffffffffffffULL), "ffffffffffffffff");
}

TEST(SpecHash, StableAcrossCalls) {
  const auto spec = base_spec();
  const auto first = artifact::cell_hash(toy(), spec, 5);
  const auto second = artifact::cell_hash(toy(), spec, 5);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 16u);
}

TEST(SpecHash, GoldenCellHash) {
  // Pinned against accidental canonical-form drift: if this changes, every
  // existing artifact directory silently becomes unreachable. Bump
  // artifact::kSchemaVersion when changing the canonical form on purpose.
  EXPECT_EQ(artifact::cell_hash(toy(), base_spec(), 5), "04012f2585e2ffd9");
}

TEST(SpecHash, ExecutionOnlyGibbsFieldsAreExcluded) {
  const auto spec = base_spec();
  const auto reference = artifact::cell_hash(toy(), spec, 5);

  auto flipped = spec;
  flipped.gibbs.parallel_chains = !spec.gibbs.parallel_chains;
  EXPECT_EQ(artifact::cell_hash(toy(), flipped, 5), reference);
}

TEST(SpecHash, ResultDeterminingFieldsAreCovered) {
  const auto spec = base_spec();
  const auto reference = artifact::cell_hash(toy(), spec, 5);

  auto changed = spec;
  changed.gibbs.seed += 1;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.gibbs.iterations += 1;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.gibbs.thin = 2;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.prior = core::PriorKind::kNegativeBinomial;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.model = core::DetectionModelKind::kWeibull;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.config.lambda_max *= 2.0;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.config.scheme = core::SamplerScheme::kVanilla;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  changed = spec;
  changed.eventual_total += 1;
  EXPECT_NE(artifact::cell_hash(toy(), changed, 5), reference);

  EXPECT_NE(artifact::cell_hash(toy(), spec, 8), reference);

  const data::BugCountData other("toy", {1, 0, 2, 1, 3, 0, 1, 2, 0, 2});
  EXPECT_NE(artifact::cell_hash(other, spec, 5), reference);
}

TEST(SpecHash, DatasetNameDoesNotAffectIdentity) {
  // The counts determine the posterior; the display name does not.
  const data::BugCountData renamed("other-name",
                                   {1, 0, 2, 1, 3, 0, 1, 2, 0, 1});
  EXPECT_EQ(artifact::cell_hash(renamed, base_spec(), 5),
            artifact::cell_hash(toy(), base_spec(), 5));
}

TEST(SpecHash, CellIdentityIgnoresTheSweepDayGrid) {
  // A cell's posterior depends only on its own observation day, so sweeps
  // over different grids share per-cell artifacts.
  auto narrow = base_spec();
  narrow.observation_days = {5};
  EXPECT_EQ(artifact::cell_hash(toy(), narrow, 5),
            artifact::cell_hash(toy(), base_spec(), 5));
}

TEST(SpecHash, SweepHashCoversTheGrid) {
  srm::report::SweepOptions options;
  options.observation_days = {5, 8};
  options.eventual_total = 12;
  const auto reference = artifact::sweep_hash(toy(), options);
  EXPECT_EQ(artifact::sweep_hash(toy(), options), reference);

  auto changed = options;
  changed.observation_days = {5};
  EXPECT_NE(artifact::sweep_hash(toy(), changed), reference);

  changed = options;
  changed.gibbs.seed += 1;
  EXPECT_NE(artifact::sweep_hash(toy(), changed), reference);

  // Execution-only fields stay excluded at the sweep level too.
  changed = options;
  changed.gibbs.parallel_chains = !options.gibbs.parallel_chains;
  EXPECT_EQ(artifact::sweep_hash(toy(), changed), reference);

  changed = options;
  changed.set_override(core::PriorKind::kPoisson,
                       core::DetectionModelKind::kConstant,
                       core::HyperPriorConfig{});
  EXPECT_NE(artifact::sweep_hash(toy(), changed), reference);
}

}  // namespace
