//===- support/ThreadPool.h - Work-stealing thread pool -----------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's execution substrate: a work-stealing thread pool plus
/// the TaskGroup / parallelFor structured-parallelism API that the
/// ExperimentRunner and the simulator's threaded phase 1 are built on.
/// Each worker owns a deque; it pops its own work LIFO (locality) and steals FIFO from victims (oldest, largest
/// work first) — the classic Blumofe/Leiserson discipline used by the
/// schedulers in SNIPPETS.md. Waiters help: TaskGroup::wait() drains pool
/// work instead of blocking, so nested groups cannot deadlock the pool.
///
/// Experiment runs are embarrassingly parallel (each owns its simulator),
/// so the pool carries no task dependencies; ordering guarantees live in
/// the ExperimentRunner, which writes results by grid index.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SUPPORT_THREADPOOL_H
#define CTA_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cta {

/// A fixed-size work-stealing thread pool. Tasks are arbitrary
/// std::function<void()>; exceptions must not escape a task (experiment
/// code reports fatal errors by aborting, matching the rest of the
/// project).
class ThreadPool {
  /// One worker's deque. The owner pushes/pops at the back; thieves (and
  /// external submitters' round-robin) take from the front.
  struct WorkerQueue {
    std::mutex Mutex;
    std::deque<std::function<void()>> Tasks;
  };

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Threads;

  std::mutex SleepMutex;
  std::condition_variable SleepCV;
  std::atomic<std::uint64_t> PendingTasks{0};
  std::atomic<bool> Stopping{false};
  std::atomic<unsigned> NextQueue{0};

  void workerLoop(unsigned Self);
  bool popFrom(unsigned Queue, bool Owner, std::function<void()> &Out);

public:
  /// \p NumThreads = 0 selects defaultThreadCount().
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return Threads.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned defaultThreadCount();

  /// Enqueues \p Fn; it runs on some worker eventually. Round-robins
  /// across worker deques so independent submitters spread load without
  /// a central bottleneck queue.
  void submit(std::function<void()> Fn);

  /// Runs one queued task on the calling thread if any is available.
  /// Returns false when every deque was empty. Used by helping waiters.
  bool tryRunOne();
};

/// A set of tasks that complete together. spawn() submits to the pool;
/// wait() helps execute pool work until every spawned task of this group
/// has finished. Destruction waits.
class TaskGroup {
  ThreadPool &Pool;
  std::atomic<std::uint64_t> Pending{0};
  std::mutex DoneMutex;
  std::condition_variable DoneCV;

public:
  explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  void spawn(std::function<void()> Fn);
  void wait();
};

/// Runs Fn(I) for every I in [Begin, End). With \p Pool null or a single
/// index, runs inline on the calling thread (exactly serial semantics);
/// otherwise the range is split into contiguous chunks executed on the
/// pool. Blocks until the whole range is done. Iterations must be
/// independent.
void parallelFor(ThreadPool *Pool, std::size_t Begin, std::size_t End,
                 const std::function<void(std::size_t)> &Fn);

} // namespace cta

#endif // CTA_SUPPORT_THREADPOOL_H
