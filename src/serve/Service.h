//===- serve/Service.h - Submit/collect experiment service core -*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution core shared by `cta run` (through the ExperimentRunner
/// shim) and the `cta serve` daemon: an asynchronous submit/collect service
/// over RunTasks. Each submitted task resolves through a four-tier ladder:
///
///   1. warm   — the in-memory index of outcomes this Service already
///               produced or loaded; answered without touching the disk.
///   2. coalesced — an identical fingerprint is already executing; the new
///               waiter shares the inflight future (single-flight: one
///               simulator invocation no matter how many concurrent
///               requests race on the same key).
///   3. hit    — the persistent RunCache has the result on disk.
///   4. miss   — the simulator runs (on the pool when Jobs > 1), the
///               result is stored, and the warm index learns it.
///
/// Traced tasks sidestep all of it ("bypass", as before): their value is
/// the event stream, which neither tier persists. Cooperative shutdown
/// (serve/Shutdown.h) turns not-yet-started cold work into "skipped"
/// outcomes so Ctrl-C never publishes artifacts built from a half-run grid.
///
/// Outcomes are shared immutable records (result + artifact); per-waiter
/// views (the cache_status a particular caller observed) are applied by
/// the collect helpers, not stored.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_SERVICE_H
#define CTA_SERVE_SERVICE_H

#include "exec/RunCache.h"
#include "exec/RunTask.h"
#include "obs/RunArtifact.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cta::serve {

/// The immutable record of one executed (or cache-served) task. Shared by
/// every waiter that coalesced onto it; Artifact.CacheStatus holds the
/// *executor's* view ("hit" / "miss" / "disabled" / "bypass" / "skipped"),
/// which per-waiter collection may override with "warm" / "coalesced".
struct TaskOutcome {
  RunResult Result;
  obs::RunArtifact Artifact;
};

/// Converts one finished (or cache-served) run into its artifact record.
obs::RunArtifact makeRunArtifact(const RunTask &Task, std::uint64_t Key,
                                 const char *CacheStatus, const RunResult &R);

class Service {
public:
  struct Config {
    /// Worker threads. 0 = one per hardware thread; 1 = execute inline on
    /// the submitting thread (fully deterministic completion order).
    unsigned Jobs = 0;
    /// Directory of the persistent RunCache; empty disables caching.
    std::string CacheDir;
    /// When true (the CLI/bench default), cold work that has not started
    /// by the time a shutdown signal arrives resolves as "skipped" — a
    /// Ctrl-C'd `cta run` abandons its grid instead of finishing it. The
    /// daemon sets false: admitted requests were promised a response, so
    /// graceful shutdown *drains* them (admission stops new work instead).
    bool SkipOnShutdown = true;
    /// Simulator threads per run (SimExec::Threads), sharing the engine's
    /// phase 1: 1 = the calling thread, 0 = one per hardware thread,
    /// N > 1 = at most N.
    /// Results are bit-identical for every value, so this is not part of
    /// the fingerprint — warm/cached answers are valid across settings.
    /// Cold misses lend the service's own pool to the engine.
    unsigned SimThreads = 1;
  };

  /// How a submission was satisfied, in ladder order.
  enum class Tier { Warm, Coalesced, Hit, Miss, Disabled, Bypass };

  /// The string recorded as a waiter's cache_status for \p T.
  static const char *tierName(Tier T);

  /// One submitted task: the shared outcome future plus what this
  /// particular waiter should report. A "Miss" submission can still yield
  /// a "skipped" outcome if shutdown arrives before it starts.
  struct Submission {
    std::shared_future<std::shared_ptr<const TaskOutcome>> Future;
    std::uint64_t Key = 0;
    Tier How = Tier::Miss;
  };

  explicit Service(Config C);
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Worker threads actually in use (resolves Jobs == 0).
  unsigned jobs() const { return Cfg.Jobs; }

  /// The underlying pool; null when running inline with Jobs == 1.
  ThreadPool *pool() { return Pool.get(); }

  const RunCache &cache() const { return Cache; }

  /// The grid-level metric sink every run's counters roll up into.
  obs::MetricSink &gridSink() { return GridSink; }
  const obs::MetricSink &gridSink() const { return GridSink; }

  /// Number of tasks that actually reached the simulator.
  std::uint64_t simulatorInvocations() const {
    return SimInvocations.load(std::memory_order_relaxed);
  }

  /// Total memory accesses simulated by executing tasks.
  std::uint64_t simulatedAccesses() const {
    return SimAccesses.load(std::memory_order_relaxed);
  }

  /// True once any task was skipped because shutdown was requested.
  bool interrupted() const {
    return Interrupted.load(std::memory_order_relaxed);
  }

  /// Entries currently answerable from memory (tests/inspection).
  std::size_t warmIndexSize() const;

  /// The outcome for \p Key if it is in the warm index; null otherwise.
  /// Side-effect free (no disk lookup, no counters): the daemon's reader
  /// threads probe this to answer warm requests without a trip through
  /// admission control.
  std::shared_ptr<const TaskOutcome> lookupWarm(std::uint64_t Key) const;

  /// The cache key of \p Task (exposed so callers can correlate warm-index
  /// state and single-flight coalescing with tasks).
  static std::uint64_t fingerprint(const RunTask &Task);

  /// Submits one task; never blocks on simulation (the returned future
  /// does). Thread-safe.
  Submission submit(const RunTask &Task);

  /// Waits for \p Sub and returns this waiter's view of the outcome: the
  /// shared artifact with CacheStatus rewritten to the waiter's tier and
  /// Label rewritten to the waiter's task label (coalesced waiters may
  /// have submitted under a different label than the executor).
  TaskOutcome collect(const Submission &Sub, const RunTask &Task) const;

  /// submit + collect for one task on the calling thread.
  TaskOutcome runOne(const RunTask &Task);

  /// Submits every task, then collects in task order. Outcomes[I]
  /// corresponds to Tasks[I] regardless of completion order.
  std::vector<TaskOutcome> runBatch(const std::vector<RunTask> &Tasks);

  /// Blocks until every previously submitted task has completed.
  void drain();

private:
  struct Inflight;

  RunResult execute(const RunTask &Task);
  void scheduleExecute(const RunTask &Task, std::uint64_t Key,
                       std::shared_ptr<Inflight> State, bool Bypass);
  void complete(const RunTask &Task, std::uint64_t Key,
                const std::shared_ptr<Inflight> &State, bool Bypass);
  void finish(std::uint64_t Key, const std::shared_ptr<Inflight> &State,
              std::shared_ptr<const TaskOutcome> Out, bool Index);

  Config Cfg;
  RunCache Cache;
  std::unique_ptr<ThreadPool> Pool; // null when Jobs == 1
  std::atomic<std::uint64_t> SimInvocations{0};
  std::atomic<std::uint64_t> SimAccesses{0};
  std::atomic<bool> Interrupted{false};
  obs::MetricSink GridSink;

  mutable std::mutex IndexMutex;
  std::unordered_map<std::uint64_t, std::shared_ptr<const TaskOutcome>>
      WarmIndex;
  std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> InflightMap;

  std::atomic<std::uint64_t> Outstanding{0};
  std::mutex DrainMutex;
  std::condition_variable DrainCV;
};

} // namespace cta::serve

#endif // CTA_SERVE_SERVICE_H
