// Zero-allocation regression test for the steady-state Gibbs kernel.
//
// This binary replaces the global allocation operators with counting
// versions. After a warm-up phase (which fills the per-chain workspace, the
// thread_local day-constant caches in the detection models and the lazy
// static tables in support/math), a full Gibbs scan through
// BayesianSrm::update() must perform ZERO heap allocations — that is the
// tentpole guarantee of the workspace/batch/function_ref kernel, and any
// regression (a std::function creeping back in, a vector copy in a density
// lambda, a buffer sized per scan) trips the counter immediately.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bayes_srm.hpp"
#include "core/streaming.hpp"
#include "data/datasets.hpp"
#include "diagnostics/online.hpp"
#include "mcmc/trace.hpp"
#include "random/rng.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);  // NOLINT
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t alignment) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(alignment),
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

// NOLINTBEGIN(misc-new-delete-overloads)
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_aligned_alloc(size, alignment);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
// NOLINTEND(misc-new-delete-overloads)

namespace {

using srm::core::BayesianSrm;
using srm::core::DetectionModelKind;
using srm::core::HyperPriorConfig;
using srm::core::PriorKind;
using srm::core::SamplerScheme;

/// Allocations performed by `updates` steady-state scans after `warmup`
/// warm-up scans on the full sys1 dataset. With `frozen`, the warm-up ends
/// with the burn-in hook, which must freeze the kernel the counted scans
/// then run.
std::uint64_t count_update_allocations(PriorKind prior,
                                       DetectionModelKind model_kind,
                                       SamplerScheme scheme, int warmup,
                                       int updates, bool frozen = false) {
  const auto data = srm::data::sys1_grouped();
  HyperPriorConfig config;
  config.scheme = scheme;
  const BayesianSrm model(prior, model_kind, data, config);
  srm::random::Rng rng(20240624);
  auto state = model.initial_state(rng);
  const auto workspace = model.make_workspace();
  for (int i = 0; i < warmup; ++i) {
    model.update(state, rng, workspace.get());
  }
  if (frozen) {
    model.end_burn_in(workspace.get());
    EXPECT_TRUE(dynamic_cast<const BayesianSrm::Workspace&>(*workspace)
                    .kernel_frozen());
  }
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < updates; ++i) {
    model.update(state, rng, workspace.get());
  }
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocation_count.load(std::memory_order_relaxed);
}

/// Every registered (family, detection model) pair: both paper priors over
/// model0..model6, plus the size-biased family's multinomial channel.
std::vector<std::pair<PriorKind, DetectionModelKind>> kernel_cells() {
  std::vector<std::pair<PriorKind, DetectionModelKind>> cells;
  for (const auto prior :
       {PriorKind::kPoisson, PriorKind::kNegativeBinomial}) {
    for (int model_id = 0; model_id <= 6; ++model_id) {
      cells.emplace_back(prior, static_cast<DetectionModelKind>(model_id));
    }
  }
  cells.emplace_back(PriorKind::kSizeBiased,
                     DetectionModelKind::kSizeBiasedMultinomial);
  return cells;
}

TEST(ZeroAllocationKernel, CollapsedSchemeAllModelsBothPriors) {
  // Burn-in kernel scans first, then the kernel frozen by the burn-in hook.
  for (const auto& [prior, model] : kernel_cells()) {
    for (const bool frozen : {false, true}) {
      EXPECT_EQ(count_update_allocations(prior, model,
                                         SamplerScheme::kCollapsed, 50, 100,
                                         frozen),
                0u)
          << srm::core::to_string(prior) << " "
          << srm::core::to_string(model) << (frozen ? " frozen" : "");
    }
  }
}

TEST(ZeroAllocationKernel, VanillaSchemeAllModelsBothPriors) {
  for (const auto& [prior, model] : kernel_cells()) {
    EXPECT_EQ(count_update_allocations(prior, model,
                                       SamplerScheme::kVanilla, 50, 100),
              0u)
        << srm::core::to_string(prior) << " " << srm::core::to_string(model);
  }
}

TEST(ZeroAllocationKernel, PointwiseLikelihoodIntoIsAllocationFree) {
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  srm::random::Rng rng(7);
  auto state = model.initial_state(rng);
  const auto workspace = model.make_workspace();
  std::vector<double> out(data.days());
  model.pointwise_row(state, *workspace, out);  // warm-up
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 50; ++i) {
    model.pointwise_row(state, *workspace, out);
  }
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
}

TEST(ZeroAllocationKernel, StreamingAccumulatorPathIsAllocationFree) {
  // The streaming pipeline's per-draw work — scoring the pointwise row
  // from the workspace buffers, the WAIC moments, the diagnostics shards
  // and the residual reservoir — must not touch the heap in steady state;
  // everything is sized at construction from the retention geometry.
  const auto data = srm::data::sys1_grouped();
  const BayesianSrm model(PriorKind::kPoisson, DetectionModelKind::kWeibull,
                          data, {});
  constexpr std::size_t kWarmup = 40;
  constexpr std::size_t kMeasured = 100;
  srm::core::StreamingScorer scorer(model, 1, kWarmup + kMeasured);
  srm::diagnostics::ParameterStatsAccumulator stats(model.state_size(), 1,
                                                    kWarmup + kMeasured);
  srm::core::ResidualAccumulator residual(model.residual_index(), 1,
                                          kWarmup + kMeasured);
  srm::random::Rng rng(20240624);
  auto state = model.initial_state(rng);
  const auto workspace = model.make_workspace();
  const auto feed = [&] {
    model.update(state, rng, workspace.get());
    scorer.accumulate(0, state, workspace.get());
    stats.accumulate(0, state, workspace.get());
    residual.accumulate(0, state, workspace.get());
  };
  for (std::size_t i = 0; i < kWarmup; ++i) feed();
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMeasured; ++i) feed();
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
}

TEST(ZeroAllocationKernel, ReservedTraceRetentionDoesNotReallocate) {
  // An McmcRun reserves every chain's parameter vectors for the full
  // retention up front, so recording draws as a sink performs zero
  // allocations — no per-draw reallocation churn while chains are stored.
  constexpr std::size_t kParams = 6;
  constexpr std::size_t kDraws = 500;
  srm::mcmc::McmcRun run(std::vector<std::string>(kParams, "p"), 2, kDraws);
  const std::vector<double> state(kParams, 1.5);
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kDraws; ++i) {
    run.accumulate(0, state, nullptr);
    run.accumulate(1, state, nullptr);
  }
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(run.total_samples(), 2 * kDraws);
}

/// The counter itself must work, or the zero expectations above are
/// vacuous: a plain vector construction inside the window has to register.
TEST(ZeroAllocationKernel, CounterDetectsAllocations) {
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  {
    std::vector<double> v(257);
    ASSERT_NE(v.data(), nullptr);
  }
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_GE(g_allocation_count.load(std::memory_order_relaxed), 1u);
}

}  // namespace
