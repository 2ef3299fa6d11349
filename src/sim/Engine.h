//===- sim/Engine.h - Mapping execution engine -----------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a Mapping on a MachineSim: every core runs its assigned
/// iterations in schedule order, cores interleave in (cycle, core) order,
/// and global round barriers synchronize cores when the mapping requires
/// them. The result is the execution-cycle metric all the paper's figures
/// are built on: the finishing time of the slowest core.
///
/// One engine (EpochEngine) runs every simulation in two phases per
/// epoch; DESIGN.md ("The simulator engine") states the invariants that
/// make it bit-identical to the reference engine kept for the tests.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_ENGINE_H
#define CTA_SIM_ENGINE_H

#include "core/Mapping.h"
#include "poly/Program.h"
#include "sim/MachineSim.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace cta {

/// Row-major array placement in the simulated address space: arrays laid
/// out back to back, page aligned.
class AddressMap {
  std::vector<std::uint64_t> Base;
  std::vector<unsigned> ElementSize;

public:
  static constexpr std::uint64_t PageSize = 4096;
  static constexpr std::uint64_t FirstAddress = PageSize; // keep 0 unused

  explicit AddressMap(const std::vector<ArrayDecl> &Arrays);

  std::uint64_t baseOf(unsigned ArrayId) const {
    assert(ArrayId < Base.size() && "bad array id");
    return Base[ArrayId];
  }

  std::uint64_t addrOf(unsigned ArrayId, std::int64_t FlatIndex) const {
    assert(ArrayId < Base.size() && "bad array id");
    return Base[ArrayId] +
           static_cast<std::uint64_t>(FlatIndex) * ElementSize[ArrayId];
  }
};

/// Outcome of executing one mapping.
struct ExecutionResult {
  std::uint64_t TotalCycles = 0;          // finishing time of slowest core
  std::vector<std::uint64_t> CoreCycles;  // per-core finishing times
  SimStats Stats;                         // cache behaviour of this run
  std::vector<CacheNodeStats> PerCache;   // per cache instance, node order
};

class AccessTrace;
class ThreadPool;

/// Engine concurrency options, threaded from `cta run --sim-threads=N`
/// (CTA_SIM_THREADS) through serve::Service down to executeTrace.
struct SimExec {
  /// Threads that share phase 1 (the per-core private-cache sweep):
  /// 1 = the calling thread alone (the default); 0 = one per hardware
  /// thread; N > 1 = at most N. Phase 2 always runs on the calling
  /// thread. Results are bit-identical across every value — threads only
  /// change wall time.
  unsigned Threads = 1;

  /// Optional shared pool (the serve daemon lends its own); when null and
  /// Threads != 1 the engine brings up a pool for the run. Workers of a
  /// lent pool help instead of blocking, so nesting under exec/ jobs
  /// cannot deadlock.
  ThreadPool *Pool = nullptr;
};

/// The simulator's execution engine: one run of \p Trace on \p Machine,
/// driven epoch by epoch. In an epoch every core issues a given list of
/// iterations, starting from its own clock, and the cores interleave in
/// (cycle, core) order. Each epoch takes two phases:
///
///  1. Every core's iterations sweep through the caches private to that
///     core; no interleaving can change what happens there. Whatever the
///     private prefix cannot resolve becomes a record: one per iteration
///     with a probe that missed the whole prefix, one per such probe.
///     Iterations resolved privately fold into the next record's start
///     delta.
///  2. The records replay through the shared levels on one (cycle, core)
///     heap, so every shared cache sees the probe sequence of a fully
///     interleaved run.
///
/// Point-to-point and traced epochs record every iteration: phase 2 then
/// honours the waits, or walks each access through MachineSim::access
/// and stamps its events, in exactly the interleaved order.
///
/// executeTrace() runs a static mapping as one epoch per barrier round;
/// runtime::executeAdaptive() runs one epoch per remap round.
class EpochEngine {
public:
  /// Starts a run: clears the machine's statistics and opens a nest in
  /// its trace log. The caller has rejected work on disabled cores.
  EpochEngine(MachineSim &Machine, const AccessTrace &Trace,
              const SimExec &Exec = SimExec());
  ~EpochEngine();

  /// Per-core clocks: where each core's next epoch starts.
  std::vector<std::uint64_t> Cycle;

  /// Runs one epoch in which core C issues \p Work[C] in order from
  /// Cycle[C]. With \p PointToPoint, that mapping's dependences gate the
  /// iterations; their positions count from the start of Work[C].
  void runEpoch(const std::vector<std::span<const std::uint32_t>> &Work,
                const Mapping *PointToPoint = nullptr);

  /// Ends the run: folds its statistics into the machine, publishes the
  /// sim.parallel.* counters and returns the result.
  ExecutionResult finish();

private:
  /// An access that missed the whole private prefix. PreLat is the known
  /// latency since the previous probe of its iteration (or its start).
  struct ProbeRecord {
    std::uint64_t Addr;
    std::uint32_t PreLat;
  };

  /// An iteration phase 2 must replay. PreDelta is the scaled duration of
  /// the iterations resolved since the previous record (or the epoch
  /// start); Tail the unscaled known cost after the last probe, compute
  /// included.
  struct IterRecord {
    std::uint64_t PreDelta;
    std::uint64_t Tail;
    std::uint32_t Iter;
    std::uint32_t NumProbes;
  };

  /// One core's records for the current epoch. The vectors are cleared,
  /// never freed, between epochs.
  struct CoreRecords {
    std::vector<IterRecord> Iters;
    std::vector<ProbeRecord> Probes;
    std::uint64_t TailDelta = 0; // resolved cost after the last record
    std::size_t NextIter = 0;    // phase 2 cursors
    std::size_t NextProbe = 0;
    SimStats Private; // private-prefix statistics, summed over epochs
  };

  void sweep(unsigned Core, std::span<const std::uint32_t> Iters,
             bool RecordAll);
  unsigned sharedWalk(unsigned Core, std::uint64_t Addr);
  void replay(unsigned Core);

  MachineSim &Machine;
  const AccessTrace &Trace;
  SimExec Exec;
  TraceLog *Log;
  std::vector<unsigned> Speed; // empty on uniform machines
  std::vector<CoreRecords> Records;
  std::unique_ptr<ThreadPool> OwnPool;
  SimStats Shared; // shared-level statistics from phase 2
  std::uint64_t NumIterRecords = 0;
  std::uint64_t NumProbeRecords = 0;
};

/// Executes nest \p NestIdx of \p Prog under \p Map on \p Machine. The
/// iteration table must be the nest's lexicographic enumeration (the
/// pipeline guarantees ids match). Statistics cover only this execution;
/// cache contents persist across calls so multi-nest programs stay warm.
///
/// The nest is lowered to an AccessTrace (precompiled per-iteration byte
/// addresses) and run by executeTrace(). Bit-identical results to
/// executeMappingReference().
ExecutionResult executeMapping(MachineSim &Machine, const Program &Prog,
                               unsigned NestIdx, const IterationTable &Table,
                               const Mapping &Map, const AddressMap &Addrs);

/// Executes \p Map over an already-compiled \p Trace. The experiment
/// driver shares one trace across every (machine x strategy) run of the
/// same workload via the TraceRegistry.
ExecutionResult executeTrace(MachineSim &Machine, const AccessTrace &Trace,
                             const Mapping &Map);

/// As above with engine concurrency options (see SimExec).
ExecutionResult executeTrace(MachineSim &Machine, const AccessTrace &Trace,
                             const Mapping &Map, const SimExec &Exec);

/// The original naive engine — per-access affine evaluation, O(NumCores)
/// min-scans, two-probe cache walks — retained as the oracle the
/// randomized differential test (tests/sim_equivalence_test.cpp) checks
/// the fast path against.
ExecutionResult executeMappingReference(MachineSim &Machine,
                                        const Program &Prog, unsigned NestIdx,
                                        const IterationTable &Table,
                                        const Mapping &Map,
                                        const AddressMap &Addrs);

} // namespace cta

#endif // CTA_SIM_ENGINE_H
