// Tests for the execution runtime: pool lifecycle, structured fork-join,
// exception propagation, nesting, and the deterministic parallel loops.
#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/parallel_for.hpp"
#include "runtime/task_group.hpp"
#include "support/error.hpp"

namespace {

using srm::runtime::ThreadPool;
using srm::runtime::TaskGroup;

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DrainsPendingTasksOnShutdown) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    TaskGroup group(pool);
    for (int i = 0; i < 50; ++i) {
      group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
  }  // ~ThreadPool joins its workers
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, GlobalPoolResizesViaOverride) {
  ThreadPool::set_global_thread_count(3);
  EXPECT_EQ(ThreadPool::global().worker_count(), 3u);
  ThreadPool::set_global_thread_count(0);  // back to the default
  EXPECT_EQ(ThreadPool::global().worker_count(),
            ThreadPool::default_thread_count());
}

TEST(ThreadPool, OnWorkerThreadDistinguishesInsideFromOutside) {
  ThreadPool pool(1);
  EXPECT_FALSE(pool.on_worker_thread());
  // Block on a future rather than TaskGroup::wait(): the helping wait may
  // run the task on this thread, while a bare future forces a worker to.
  std::promise<bool> ran_on_worker;
  auto result = ran_on_worker.get_future();
  pool.submit([&pool, &ran_on_worker] {
    ran_on_worker.set_value(pool.on_worker_thread());
  });
  EXPECT_TRUE(result.get());
}

TEST(TaskGroup, WaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  std::atomic<int> finished{0};
  for (int i = 0; i < 10; ++i) {
    group.run([&finished, i] {
      if (i == 3) throw srm::NumericError("task 3 failed");
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.wait(), srm::NumericError);
  // A failing task never cancels its siblings: all other 9 ran to the end.
  EXPECT_EQ(finished.load(), 9);
}

TEST(TaskGroup, ReusableAfterWaitAndAfterError) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.run([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(group.wait(), std::runtime_error);

  std::atomic<int> count{0};
  group.run([&count] { ++count; });
  group.wait();  // the old error was observed; must not resurface
  EXPECT_EQ(count.load(), 1);
}

TEST(TaskGroup, NestedGroupsOnSingleWorkerDoNotDeadlock) {
  // A task running on the pool's only worker opens its own group; wait()
  // must help execute the inner tasks instead of sleeping forever.
  ThreadPool pool(1);
  std::atomic<int> inner_total{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.run([&pool, &inner_total] {
      TaskGroup inner(pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&inner_total] {
          inner_total.fetch_add(1, std::memory_order_relaxed);
        });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  srm::runtime::parallel_for(
      0, hits.size(), [&](std::size_t i) { ++hits[i]; },
      srm::runtime::kDefaultGrain, pool);
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ParallelFor, EmptyRangeIsANoOp) {
  srm::runtime::parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, ChunkPartitionDependsOnlyOnSizeAndGrain) {
  using srm::runtime::chunk_count;
  EXPECT_EQ(chunk_count(0, 16), 0u);
  EXPECT_EQ(chunk_count(1, 16), 1u);
  EXPECT_EQ(chunk_count(16, 16), 1u);
  EXPECT_EQ(chunk_count(17, 16), 2u);
  EXPECT_EQ(chunk_count(170, 16), 11u);
  EXPECT_THROW(chunk_count(10, 0), srm::InvalidArgument);

  // The recorded chunk boundaries must be identical on 1 and 4 workers.
  const auto boundaries = [](ThreadPool& pool) {
    std::vector<std::pair<std::size_t, std::size_t>> spans(
        srm::runtime::chunk_count(103, 10));
    srm::runtime::parallel_for_chunks(
        103, 10,
        [&](std::size_t c, std::size_t lo, std::size_t hi) {
          spans[c] = {lo, hi};
        },
        pool);
    return spans;
  };
  ThreadPool one(1);
  ThreadPool four(4);
  EXPECT_EQ(boundaries(one), boundaries(four));
}

TEST(ParallelFor, PropagatesTaskExceptions) {
  EXPECT_THROW(srm::runtime::parallel_for(0, 100,
                                          [](std::size_t i) {
                                            if (i == 42) {
                                              throw srm::NumericError("42");
                                            }
                                          }),
               srm::NumericError);
}

TEST(ThreadPool, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

}  // namespace
