// The shared execution substrate for the whole library: a fixed-size
// work-stealing thread pool.
//
// Every parallel construct in bayes-srm (task_group, parallel_for, the
// sweep scheduler) funnels into this pool; nothing else in the tree may
// create a std::thread (enforced by the srm-lint `raw-thread` rule). One
// lazily-created global instance is shared so nested parallelism — a sweep
// cell fitting on a worker that itself fans out MCMC chains — composes
// without oversubscribing the machine.
//
// Sizing, in priority order:
//   1. set_global_thread_count(n) (the CLI's --threads flag),
//   2. the SRM_THREADS environment variable,
//   3. std::thread::hardware_concurrency().
//
// Determinism contract: the pool only decides *where* and *when* tasks run,
// never what they compute. Work that needs reproducible results arranges
// it so the outcome is bit-identical for any worker count, including 1:
// SeedSequence substreams, and reductions only in the chain-order shard
// merges of WaicAccumulator, ParameterStatsAccumulator and
// ResidualAccumulator.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace srm::runtime {

class ThreadPool {
 public:
  /// Starts `worker_count` workers; 0 means default_thread_count().
  explicit ThreadPool(std::size_t worker_count = 0);

  /// Joins all workers. Pending tasks are drained before shutdown so no
  /// submitted work is lost.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task. Called from a pool worker the task lands on that
  /// worker's own deque (LIFO, cache-friendly); otherwise on the shared
  /// injection queue. Idle workers steal FIFO from the other deques.
  void submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers — used by
  /// blocking joins to help execute tasks instead of deadlocking.
  [[nodiscard]] bool on_worker_thread() const;

  /// The lazily-created process-wide pool.
  static ThreadPool& global();

  /// Replaces the global pool with one of `worker_count` threads (0 =
  /// default_thread_count()). Must be called from a quiescent,
  /// single-threaded phase (CLI startup, between test cases): the old pool
  /// drains and joins before the new size takes effect.
  static void set_global_thread_count(std::size_t worker_count);

  /// SRM_THREADS environment override if set to a positive integer,
  /// otherwise std::thread::hardware_concurrency() (at least 1).
  static std::size_t default_thread_count();

 private:
  struct Deque {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t index);
  bool try_acquire(std::size_t index, std::function<void()>& task);

  std::vector<std::unique_ptr<Deque>> queues_;  // one per worker
  Deque injection_;                             // external submissions
  std::vector<std::thread> workers_;

  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::size_t ready_ = 0;     // queued tasks not yet acquired
  bool stopping_ = false;
};

}  // namespace srm::runtime
