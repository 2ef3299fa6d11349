//===- sim/Engine.cpp - Mapping execution engine ---------------------------===//

#include "sim/Engine.h"

#include "obs/MetricSink.h"
#include "sim/AccessTrace.h"
#include "sim/TraceLog.h"
#include "support/ErrorHandling.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>

using namespace cta;

namespace {

obs::Counter NumRuns("sim.parallel.runs");
obs::Counter NumRecordBytes("sim.parallel.record-bytes");
obs::Counter NumDeferredProbes("sim.parallel.deferred-probes");
obs::Counter NumDeferredIters("sim.parallel.deferred-iters");

/// Per-core speed table for heterogeneous topologies. 100 = nominal; a
/// degraded core stretches each iteration's duration by 100/pct. Returns
/// an empty vector for uniform machines so the hot paths keep a single
/// never-taken branch.
std::vector<unsigned> coreSpeeds(const CacheTopology &Topo) {
  if (Topo.uniformSpeed())
    return {};
  std::vector<unsigned> Speed(Topo.numCores());
  for (unsigned C = 0; C != Topo.numCores(); ++C)
    Speed[C] = Topo.coreSpeedPercent(C);
  return Speed;
}

void rejectDisabledCoreWork(const CacheTopology &Topo, const Mapping &Map) {
  for (unsigned C = 0; C != Map.NumCores; ++C)
    if (Topo.coreSpeedPercent(C) == 0 && !Map.CoreIterations[C].empty())
      reportFatalError(("mapping assigns work to disabled core " +
                        std::to_string(C) +
                        " — fold its work onto live cores first")
                           .c_str());
}

/// Stretches one iteration's duration for core \p Core: identity at
/// nominal speed, ceil(D * 100 / pct) otherwise (ceiling division, so a
/// slow core is never rounded back to nominal).
std::uint64_t scaleDuration(const std::vector<unsigned> &Speed, unsigned Core,
                            std::uint64_t D) {
  if (Speed.empty() || Speed[Core] == 100)
    return D;
  return (D * 100 + Speed[Core] - 1) / Speed[Core];
}

/// Unrecorded-completion sentinel. Cycle 0 is a legitimate completion time
/// (a zero-latency prefix), so "not yet recorded" must be a value no real
/// completion can take.
constexpr std::uint64_t NotRecorded = UINT64_MAX;

/// Point-to-point synchronization bookkeeping shared by both engines.
struct SyncState {
  std::vector<std::vector<SyncDep>> Waits; // per core, sorted by StartPos
  std::vector<std::map<std::uint32_t, std::uint64_t>> CompletionCycle;
  std::vector<std::size_t> NextWait;

  SyncState(const Mapping &Map, unsigned NumCores) : Waits(NumCores) {
    for (const SyncDep &D : Map.PointDeps) {
      if (D.Core >= NumCores || D.PredCore >= NumCores)
        reportFatalError("point-to-point sync references a bad core");
      Waits[D.Core].push_back(D);
    }
    for (auto &W : Waits)
      std::sort(W.begin(), W.end(), [](const SyncDep &A, const SyncDep &B) {
        return A.StartPos < B.StartPos;
      });
    // CompletionCycle[C][P] = cycle at which core C finished its first P
    // iterations, recorded only for watched positions.
    CompletionCycle.resize(NumCores);
    for (const SyncDep &D : Map.PointDeps)
      CompletionCycle[D.PredCore][D.PredEndPos] = NotRecorded;
    for (unsigned C = 0; C != NumCores; ++C) {
      auto It = CompletionCycle[C].find(0);
      if (It != CompletionCycle[C].end())
        It->second = 0; // an empty prefix is complete at cycle 0
    }
    NextWait.assign(NumCores, 0);
  }

  void recordCompletion(unsigned Core, std::uint32_t Pos,
                        std::uint64_t Cycle) {
    auto It = CompletionCycle[Core].find(Pos);
    if (It != CompletionCycle[Core].end() && It->second == NotRecorded)
      It->second = Cycle;
  }
};

} // namespace

AddressMap::AddressMap(const std::vector<ArrayDecl> &Arrays) {
  std::uint64_t Next = FirstAddress;
  for (const ArrayDecl &A : Arrays) {
    Base.push_back(Next);
    ElementSize.push_back(A.ElementSize);
    std::uint64_t Bytes = static_cast<std::uint64_t>(A.sizeInBytes());
    Next += (Bytes + PageSize - 1) / PageSize * PageSize;
  }
}

//===----------------------------------------------------------------------===//
// EpochEngine
//===----------------------------------------------------------------------===//

EpochEngine::EpochEngine(MachineSim &Machine, const AccessTrace &Trace,
                         const SimExec &Exec)
    : Cycle(Machine.topology().numCores(), 0), Machine(Machine),
      Trace(Trace), Exec(Exec), Log(Machine.traceLog()),
      Speed(coreSpeeds(Machine.topology())),
      Records(Machine.topology().numCores()) {
  Machine.clearStats();
  if (Log != nullptr)
    Log->beginNest();
}

EpochEngine::~EpochEngine() = default;

/// Phase 1 for one core: a batched row walk over its private prefix. One
/// iteration's accesses probe the prefix level by level: gather the
/// level's line addresses, probe once per surviving access, carry the
/// misses down. Every cache still sees its probes in access order
/// (survivor filtering preserves it), so state and statistics equal a
/// per-access walk's. A core whose whole path is private resolves memory
/// here too. Accesses that miss the whole prefix become probe records.
void EpochEngine::sweep(unsigned Core, std::span<const std::uint32_t> Iters,
                        bool RecordAll) {
  CoreRecords &R = Records[Core];
  R.Iters.clear();
  R.Probes.clear();
  R.TailDelta = 0;
  R.NextIter = 0;
  R.NextProbe = 0;
  const unsigned N = Trace.numAccesses();
  const unsigned ComputeCycles = Trace.computeCyclesPerIteration();
  if (Log != nullptr) {
    // Traced: the prefix counts as empty and phase 2 walks each row, so
    // every event is stamped in the global order.
    for (std::uint32_t Iter : Iters)
      R.Iters.push_back({0, ComputeCycles, Iter, 0});
    return;
  }

  const std::vector<MachineSim::PathEntry> &Path = Machine.corePath(Core);
  const unsigned Priv = Machine.privatePrefixLen(Core);
  const bool AllPrivate = Priv == Path.size();
  const unsigned MemLat = Machine.memoryLatency();
  constexpr std::uint32_t Deferred = UINT32_MAX;
  std::vector<std::uint64_t> Line(N);
  std::vector<std::uint32_t> Idx(N);
  std::vector<std::uint32_t> Lat(N);

  std::uint64_t Delta = 0;
  for (std::uint32_t Iter : Iters) {
    const std::uint64_t *Row = Trace.row(Iter);
    R.Private.TotalAccesses += N;
    unsigned Alive = N;
    for (unsigned A = 0; A != N; ++A)
      Idx[A] = A;
    for (unsigned P = 0; P != Priv && Alive != 0; ++P) {
      const MachineSim::PathEntry &E = Path[P];
      R.Private.Levels[E.Level].Lookups += Alive;
      for (unsigned J = 0; J != Alive; ++J)
        Line[J] = E.lineOf(Row[Idx[J]]);
      unsigned Surv = 0;
      std::uint64_t Hits = 0;
      for (unsigned J = 0; J != Alive; ++J) {
        if (E.C->probe(Line[J])) {
          Lat[Idx[J]] = E.Latency;
          ++Hits;
        } else {
          Idx[Surv++] = Idx[J];
        }
      }
      R.Private.Levels[E.Level].Hits += Hits;
      Alive = Surv;
    }
    if (AllPrivate) {
      R.Private.MemoryAccesses += Alive;
      for (unsigned J = 0; J != Alive; ++J)
        Lat[Idx[J]] = MemLat;
      Alive = 0;
    } else {
      for (unsigned J = 0; J != Alive; ++J)
        Lat[Idx[J]] = Deferred;
    }

    if (Alive == 0 && !RecordAll) {
      // Resolved: fold the scaled duration into the next record's start.
      std::uint64_t Known = ComputeCycles;
      for (unsigned A = 0; A != N; ++A)
        Known += Lat[A];
      Delta += scaleDuration(Speed, Core, Known);
      continue;
    }

    // Split the row into known runs between the deferred probes.
    std::uint32_t Acc = 0;
    std::uint32_t NumProbes = 0;
    for (unsigned A = 0; A != N; ++A) {
      if (Lat[A] != Deferred) {
        Acc += Lat[A];
        continue;
      }
      R.Probes.push_back({Row[A], Acc});
      Acc = 0;
      ++NumProbes;
    }
    R.Iters.push_back(
        {Delta, static_cast<std::uint64_t>(Acc) + ComputeCycles, Iter,
         NumProbes});
    Delta = 0;
  }
  R.TailDelta = Delta;
}

/// Walks one deferred probe of \p Core through the shared suffix of its
/// path and returns its latency.
unsigned EpochEngine::sharedWalk(unsigned Core, std::uint64_t Addr) {
  const std::vector<MachineSim::PathEntry> &Path = Machine.corePath(Core);
  for (unsigned P = Machine.privatePrefixLen(Core); P != Path.size(); ++P) {
    const MachineSim::PathEntry &E = Path[P];
    ++Shared.Levels[E.Level].Lookups;
    if (E.C->probe(E.lineOf(Addr))) {
      ++Shared.Levels[E.Level].Hits;
      return E.Latency;
    }
  }
  ++Shared.MemoryAccesses;
  return Machine.memoryLatency();
}

/// Phase 2 for \p Core's next record: replays it from Cycle[Core] and
/// advances the clock by the iteration's scaled duration.
void EpochEngine::replay(unsigned Core) {
  CoreRecords &R = Records[Core];
  const IterRecord &Rec = R.Iters[R.NextIter++];
  const std::uint64_t Start = Cycle[Core];
  std::uint64_t Cur = Start;
  if (Log != nullptr) {
    const std::uint64_t *Row = Trace.row(Rec.Iter);
    for (unsigned A = 0, N = Trace.numAccesses(); A != N; ++A) {
      Log->setCycle(Core, Cur);
      Cur += Machine.access(Core, Row[A], Trace.isWrite(A));
    }
  } else {
    for (std::uint32_t P = 0; P != Rec.NumProbes; ++P) {
      const ProbeRecord &Probe = R.Probes[R.NextProbe++];
      Cur += Probe.PreLat;
      Cur += sharedWalk(Core, Probe.Addr);
    }
  }
  Cur += Rec.Tail;
  Cycle[Core] = Start + scaleDuration(Speed, Core, Cur - Start);
  if (Log != nullptr)
    Log->iterationSpan(Core, Rec.Iter, Start, Cycle[Core]);
}

void EpochEngine::runEpoch(
    const std::vector<std::span<const std::uint32_t>> &Work,
    const Mapping *PointToPoint) {
  const unsigned NumCores = static_cast<unsigned>(Cycle.size());

  // Phase 1. Each core touches only its own private caches and records,
  // so the cores may sweep concurrently.
  const unsigned Threads = std::min(
      Exec.Threads == 0 ? ThreadPool::defaultThreadCount() : Exec.Threads,
      NumCores);
  ThreadPool *Pool = nullptr;
  if (Threads > 1) {
    if (Exec.Pool == nullptr && OwnPool == nullptr)
      OwnPool = std::make_unique<ThreadPool>(Threads);
    Pool = Exec.Pool != nullptr ? Exec.Pool : OwnPool.get();
  }
  parallelFor(Pool, 0, NumCores, [&](std::size_t C) {
    sweep(static_cast<unsigned>(C), Work[C], PointToPoint != nullptr);
  });
  for (const CoreRecords &R : Records) {
    NumIterRecords += R.Iters.size();
    NumProbeRecords += R.Probes.size();
  }

  // Phase 2: a binary min-heap of (cycle, core) pops the earliest clock,
  // ties broken toward the lowest core index — the order the reference
  // engine's linear min-scan produces. A core with records left is either
  // in the heap (exactly once, keyed by the cycle its next record may
  // issue at) or parked in the waiter list of the predecessor whose
  // progress it is blocked on.
  using HeapEntry = std::pair<std::uint64_t, unsigned>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      Ready;
  std::optional<SyncState> Sync;
  std::vector<std::vector<std::pair<std::uint32_t, unsigned>>> Waiters;
  if (PointToPoint != nullptr) {
    Sync.emplace(*PointToPoint, NumCores);
    Waiters.resize(NumCores); // per pred: (required PredEndPos, blocked core)
  }

  // Queues core C's next record once the waits due at its position (every
  // iteration is a record under point-to-point sync) are satisfied,
  // retiring them; parks C on the first unsatisfied one otherwise.
  // Satisfied waits ahead of an unsatisfied one are deliberately NOT
  // retired: their completion cycles must still feed ReadyAt when C is
  // re-evaluated.
  auto issue = [&](unsigned C) {
    if (Sync) {
      std::uint64_t ReadyAt = Cycle[C];
      const std::vector<SyncDep> &W = Sync->Waits[C];
      std::size_t I = Sync->NextWait[C];
      for (; I != W.size() && W[I].StartPos <= Records[C].NextIter; ++I) {
        const SyncDep &D = W[I];
        if (Records[D.PredCore].NextIter < D.PredEndPos) {
          Waiters[D.PredCore].push_back({D.PredEndPos, C});
          return;
        }
        ReadyAt =
            std::max(ReadyAt, Sync->CompletionCycle[D.PredCore][D.PredEndPos]);
      }
      Sync->NextWait[C] = I;
      Cycle[C] = ReadyAt;
    }
    Ready.push({Cycle[C], C});
  };
  // Moves C's clock to its next record and issues it; false once C has
  // none left (its clock then takes the resolved tail).
  auto advance = [&](unsigned C) {
    CoreRecords &R = Records[C];
    if (R.NextIter == R.Iters.size()) {
      Cycle[C] += R.TailDelta;
      return false;
    }
    Cycle[C] += R.Iters[R.NextIter].PreDelta;
    issue(C);
    return true;
  };

  unsigned Unfinished = 0;
  for (unsigned C = 0; C != NumCores; ++C)
    Unfinished += advance(C);
  while (!Ready.empty()) {
    const unsigned C = Ready.top().second;
    Ready.pop();
    replay(C);
    if (Sync) {
      const std::uint32_t Pos = static_cast<std::uint32_t>(Records[C].NextIter);
      Sync->recordCompletion(C, Pos, Cycle[C]);
      // Wake consumers whose required prefix of C is now complete.
      auto &Parked = Waiters[C];
      for (std::size_t I = 0; I != Parked.size();) {
        if (Parked[I].first <= Pos) {
          const unsigned Woken = Parked[I].second;
          Parked[I] = Parked.back();
          Parked.pop_back();
          issue(Woken);
        } else {
          ++I;
        }
      }
    }
    if (!advance(C))
      --Unfinished;
  }
  if (Unfinished != 0)
    reportFatalError("point-to-point synchronization deadlock");
}

ExecutionResult EpochEngine::finish() {
  std::uint64_t RecordBytes = 0;
  for (const CoreRecords &R : Records) {
    Machine.addStats(R.Private);
    RecordBytes += R.Iters.capacity() * sizeof(IterRecord) +
                   R.Probes.capacity() * sizeof(ProbeRecord);
  }
  Machine.addStats(Shared);

  ++NumRuns;
  NumRecordBytes += RecordBytes;
  NumDeferredIters += NumIterRecords;
  NumDeferredProbes += NumProbeRecords;

  ExecutionResult Result;
  Result.CoreCycles = Cycle;
  Result.TotalCycles = *std::max_element(Cycle.begin(), Cycle.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

ExecutionResult cta::executeTrace(MachineSim &Machine,
                                  const AccessTrace &Trace,
                                  const Mapping &Map) {
  return executeTrace(Machine, Trace, Map, SimExec());
}

ExecutionResult cta::executeTrace(MachineSim &Machine,
                                  const AccessTrace &Trace,
                                  const Mapping &Map, const SimExec &Exec) {
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Trace.numIterations()))
    reportFatalError("mapping is not a partition of the iteration space");
  rejectDisabledCoreWork(Machine.topology(), Map);

  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  // Round structure: without barriers the whole schedule is one round.
  const bool Barriers = !PointToPoint && Map.BarriersRequired;
  const unsigned NumRounds = Barriers ? Map.NumRounds : 1;

  EpochEngine Engine(Machine, Trace, Exec);
  TraceLog *Log = Machine.traceLog();
  std::vector<std::span<const std::uint32_t>> Work(Map.NumCores);
  std::vector<std::uint32_t> Pos(Map.NumCores, 0);
  for (unsigned Round = 0; Round != NumRounds; ++Round) {
    if (Log != nullptr)
      Log->setRound(Round);
    for (unsigned C = 0; C != Map.NumCores; ++C) {
      const std::vector<std::uint32_t> &Iters = Map.CoreIterations[C];
      const std::uint32_t End =
          Barriers ? std::max(Pos[C], Map.RoundEnd[C][Round])
                   : static_cast<std::uint32_t>(Iters.size());
      Work[C] = std::span(Iters).subspan(Pos[C], End - Pos[C]);
      Pos[C] = End;
    }
    Engine.runEpoch(Work, PointToPoint ? &Map : nullptr);

    // Barrier: everyone waits for the slowest participant (the last
    // round leaves the clocks unaligned).
    if (Barriers && Round + 1 != NumRounds) {
      const std::uint64_t Max =
          *std::max_element(Engine.Cycle.begin(), Engine.Cycle.end());
      std::fill(Engine.Cycle.begin(), Engine.Cycle.end(), Max);
      if (Log != nullptr)
        Log->roundBarrier(Round, Max);
    }
  }
  return Engine.finish();
}

ExecutionResult cta::executeMapping(MachineSim &Machine, const Program &Prog,
                                    unsigned NestIdx,
                                    const IterationTable &Table,
                                    const Mapping &Map,
                                    const AddressMap &Addrs) {
  if (NestIdx >= Prog.Nests.size())
    reportFatalError("nest index out of range");
  AccessTrace Trace = AccessTrace::compile(Prog, NestIdx, Table, Addrs);
  return executeTrace(Machine, Trace, Map);
}

ExecutionResult cta::executeMappingReference(MachineSim &Machine,
                                             const Program &Prog,
                                             unsigned NestIdx,
                                             const IterationTable &Table,
                                             const Mapping &Map,
                                             const AddressMap &Addrs) {
  if (NestIdx >= Prog.Nests.size())
    reportFatalError("nest index out of range");
  const LoopNest &Nest = Prog.Nests[NestIdx];
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Table.size()))
    reportFatalError("mapping is not a partition of the iteration space");

  const unsigned NumCores = Map.NumCores;
  const unsigned Depth = Table.depth();
  const unsigned ComputeCycles = Nest.computeCyclesPerIteration();

  // The access recipe: per access, the subscript expressions and the
  // owning array (the naive path re-evaluates these per iteration).
  struct AccessRecipe {
    const ArrayAccess *Acc;
    const ArrayDecl *Array;
  };
  std::vector<AccessRecipe> Recipes;
  Recipes.reserve(Nest.accesses().size());
  for (const ArrayAccess &A : Nest.accesses())
    Recipes.push_back({&A, &Prog.Arrays[A.ArrayId]});

  Machine.clearStats();

  std::vector<std::uint64_t> Cycle(NumCores, 0);
  std::vector<std::uint32_t> Pos(NumCores, 0);

  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  // Round structure: without barriers the whole schedule is one round.
  const bool Barriers = !PointToPoint && Map.BarriersRequired;
  const unsigned NumRounds = Barriers ? Map.NumRounds : 1;

  std::vector<std::int64_t> Point(Depth);
  std::vector<std::int64_t> Idx;

  TraceLog *Log = Machine.traceLog();
  if (Log != nullptr)
    Log->beginNest();

  rejectDisabledCoreWork(Machine.topology(), Map);
  const std::vector<unsigned> Speed = coreSpeeds(Machine.topology());

  auto runIteration = [&](unsigned Core) {
    std::uint32_t Iter = Map.CoreIterations[Core][Pos[Core]];
    Table.get(Iter, Point.data());
    std::uint64_t C = Cycle[Core];
    const std::uint64_t Start = C;
    for (const AccessRecipe &R : Recipes) {
      Idx.resize(R.Acc->Subscripts.size());
      evaluateAccess(*R.Acc, *R.Array, Point.data(), Idx.data());
      std::uint64_t Addr =
          Addrs.addrOf(R.Acc->ArrayId, R.Array->linearize(Idx.data()));
      if (Log != nullptr)
        Log->setCycle(Core, C);
      C += Machine.accessReference(Core, Addr, R.Acc->IsWrite);
    }
    std::uint64_t End =
        Start + scaleDuration(Speed, Core, C + ComputeCycles - Start);
    if (Log != nullptr)
      Log->iterationSpan(Core, Iter, Start, End);
    Cycle[Core] = End;
    ++Pos[Core];
  };

  if (PointToPoint) {
    SyncState Sync(Map, NumCores);

    for (;;) {
      unsigned Next = NumCores;
      bool AnyWork = false;
      for (unsigned C = 0; C != NumCores; ++C) {
        if (Pos[C] >= Map.CoreIterations[C].size())
          continue;
        AnyWork = true;
        // All waits due at the current position must be satisfied.
        bool Blocked = false;
        std::uint64_t ReadyAt = Cycle[C];
        for (std::size_t W = Sync.NextWait[C];
             W != Sync.Waits[C].size() &&
             Sync.Waits[C][W].StartPos <= Pos[C];
             ++W) {
          const SyncDep &D = Sync.Waits[C][W];
          if (Pos[D.PredCore] < D.PredEndPos) {
            Blocked = true;
            break;
          }
          ReadyAt = std::max(ReadyAt,
                             Sync.CompletionCycle[D.PredCore][D.PredEndPos]);
        }
        if (Blocked)
          continue;
        Cycle[C] = ReadyAt;
        if (Next == NumCores || Cycle[C] < Cycle[Next])
          Next = C;
      }
      if (Next == NumCores) {
        if (AnyWork)
          reportFatalError("point-to-point synchronization deadlock");
        break;
      }
      // Retire waits that are now permanently satisfied.
      while (Sync.NextWait[Next] != Sync.Waits[Next].size() &&
             Sync.Waits[Next][Sync.NextWait[Next]].StartPos <= Pos[Next] &&
             Pos[Sync.Waits[Next][Sync.NextWait[Next]].PredCore] >=
                 Sync.Waits[Next][Sync.NextWait[Next]].PredEndPos)
        ++Sync.NextWait[Next];
      runIteration(Next);
      Sync.recordCompletion(Next, Pos[Next], Cycle[Next]);
    }
  } else {
    for (unsigned Round = 0; Round != NumRounds; ++Round) {
      if (Log != nullptr)
        Log->setRound(Round);
      // Per-core end position of this round.
      std::vector<std::uint32_t> End(NumCores);
      for (unsigned C = 0; C != NumCores; ++C)
        End[C] = Barriers ? Map.RoundEnd[C][Round]
                          : static_cast<std::uint32_t>(
                                Map.CoreIterations[C].size());

      // Discrete-event interleave: always advance the earliest active core.
      for (;;) {
        unsigned Next = NumCores;
        for (unsigned C = 0; C != NumCores; ++C) {
          if (Pos[C] >= End[C])
            continue;
          if (Next == NumCores || Cycle[C] < Cycle[Next])
            Next = C;
        }
        if (Next == NumCores)
          break;
        runIteration(Next);
      }

      // Barrier: everyone waits for the slowest participant.
      if (Barriers && Round + 1 != NumRounds) {
        std::uint64_t Max = 0;
        for (unsigned C = 0; C != NumCores; ++C)
          Max = std::max(Max, Cycle[C]);
        for (unsigned C = 0; C != NumCores; ++C)
          Cycle[C] = Max;
        if (Log != nullptr)
          Log->roundBarrier(Round, Max);
      }
    }
  }

  ExecutionResult Result;
  Result.CoreCycles = Cycle;
  Result.TotalCycles = *std::max_element(Cycle.begin(), Cycle.end());
  Result.Stats = Machine.stats();
  Result.PerCache = Machine.perCacheStats();
  return Result;
}
