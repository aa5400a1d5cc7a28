// Deterministic data-parallel loops over the shared ThreadPool.
//
// The chunk partition is a pure function of (n, grain) — it NEVER depends
// on the worker count — so any computation expressed as "fill disjoint
// slots per index" produces bit-identical results on 1 worker and on 64.
// This is the library's determinism contract: parallelism changes
// wall-clock time, never output.
//
//   parallel_for(begin, end, fn)            fn(i) per index
//   parallel_for_chunks(n, grain, fn)       fn(chunk, lo, hi) per chunk
#pragma once

#include <cstddef>

#include "runtime/task_group.hpp"
#include "runtime/thread_pool.hpp"
#include "support/error.hpp"

namespace srm::runtime {

/// Scheduling granularity for the index-wise loops. Purely a batching
/// factor: correctness and determinism never depend on it.
inline constexpr std::size_t kDefaultGrain = 16;

/// Number of chunks the range [0, n) splits into at the given grain.
/// Depends only on (n, grain) — worker-count independent by construction.
inline std::size_t chunk_count(std::size_t n, std::size_t grain) {
  SRM_EXPECTS(grain >= 1, "chunk grain must be >= 1");
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

/// Invokes fn(chunk_index, lo, hi) for every chunk [lo, hi) of [0, n),
/// concurrently. Blocks until all chunks are done; rethrows the first
/// task exception.
template <typename Fn>
void parallel_for_chunks(std::size_t n, std::size_t grain, Fn&& fn,
                         ThreadPool& pool = ThreadPool::global()) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return;
  if (chunks == 1) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * grain;
    const std::size_t hi = lo + grain < n ? lo + grain : n;
    group.run([&fn, c, lo, hi] { fn(c, lo, hi); });
  }
  group.wait();
}

/// Invokes fn(i) for every i in [begin, end), concurrently. fn must be
/// safe to call from multiple threads at once (distinct i).
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  std::size_t grain = kDefaultGrain,
                  ThreadPool& pool = ThreadPool::global()) {
  SRM_EXPECTS(begin <= end, "parallel_for requires begin <= end");
  parallel_for_chunks(
      end - begin, grain,
      [&fn, begin](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(begin + i);
      },
      pool);
}

}  // namespace srm::runtime
