//===- tests/sim_equivalence_test.cpp - Engine vs reference engine --------===//
//
// Differential test of the simulator: executeTrace (precompiled
// AccessTrace, single-probe caches, the two-phase EpochEngine) must
// produce bit-identical results to executeMappingReference (per-access
// affine evaluation, two-scan caches, linear min-scans) on randomized
// programs, topologies and mappings — free running, barrier and
// point-to-point, on uniform and degraded machines, cold and warm, traced
// and untraced, at every phase-1 thread count. Any divergence in cycles,
// cache statistics or trace events is a bug in one of the two paths.
//
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "obs/Json.h"
#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "sim/Engine.h"
#include "sim/TraceLog.h"
#include "support/Random.h"
#include "topo/Presets.h"
#include "topo/Topology.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cta;

namespace {

/// A random affine program: 1-3 arrays of rank 1-2, a nest of depth 1-3
/// with constant bounds, 1-5 accesses. Non-wrapped subscripts are kept in
/// bounds by construction; wrapped accesses use arbitrary coefficients
/// (the Euclidean reduction makes any value legal).
Program makeRandomProgram(SplitMix64 &Rng) {
  Program P;
  const unsigned NumArrays = 1 + Rng.nextBelow(3);
  for (unsigned A = 0; A != NumArrays; ++A) {
    const unsigned Rank = 1 + Rng.nextBelow(2);
    std::vector<std::int64_t> Dims;
    for (unsigned R = 0; R != Rank; ++R)
      Dims.push_back(48 + static_cast<std::int64_t>(Rng.nextBelow(81)));
    const unsigned ElementSize = Rng.nextBelow(2) == 0 ? 4 : 8;
    P.addArray(ArrayDecl("A" + std::to_string(A), std::move(Dims),
                         ElementSize));
  }

  const unsigned Depth = 1 + Rng.nextBelow(3);
  LoopNest Nest("rand", Depth);
  std::vector<std::int64_t> UpperBound;
  for (unsigned D = 0; D != Depth; ++D) {
    std::int64_t U = Depth == 1
                         ? 15 + static_cast<std::int64_t>(Rng.nextBelow(33))
                         : 2 + static_cast<std::int64_t>(Rng.nextBelow(6));
    Nest.addConstantDim(0, U);
    UpperBound.push_back(U);
  }
  Nest.setComputeCyclesPerIteration(Rng.nextBelow(4));

  const unsigned NumAccesses = 1 + Rng.nextBelow(5);
  for (unsigned I = 0; I != NumAccesses; ++I) {
    const unsigned ArrayId = static_cast<unsigned>(Rng.nextBelow(NumArrays));
    const ArrayDecl &Array = P.Arrays[ArrayId];
    const bool Wrap = Rng.nextBelow(4) == 0;
    std::vector<AffineExpr> Subs;
    for (std::int64_t DimSize : Array.Dims) {
      AffineExpr E(Depth);
      if (Wrap) {
        for (unsigned D = 0; D != Depth; ++D)
          E.setCoeff(D, static_cast<std::int64_t>(Rng.nextBelow(7)) - 3);
        E.setConstantTerm(static_cast<std::int64_t>(Rng.nextBelow(21)) - 10);
      } else {
        // a * iv(V) + b with a * UB <= DimSize - 1 so the index stays in
        // bounds without modular reduction.
        const unsigned V = static_cast<unsigned>(Rng.nextBelow(Depth));
        const std::int64_t MaxCoeff = (DimSize - 1) / UpperBound[V];
        const std::int64_t A =
            Rng.nextBelow(static_cast<std::uint64_t>(MaxCoeff >= 2 ? 3 : 2));
        E.setCoeff(V, A);
        const std::int64_t Room = DimSize - 1 - A * UpperBound[V];
        E.setConstantTerm(
            static_cast<std::int64_t>(Rng.nextBelow(Room + 1)));
      }
      Subs.push_back(std::move(E));
    }
    Nest.addAccess(ArrayAccess(ArrayId, std::move(Subs),
                               /*IsWrite=*/Rng.nextBelow(3) == 0, Wrap));
  }
  P.Nests.push_back(std::move(Nest));
  return P;
}

/// A random two- or three-level topology. Line sizes include non-powers
/// of two (exercising the division path) and set counts are frequently
/// non-powers of two (exercising the modulo path next to the mask path).
/// Some seeds get a zero-latency L1, so an iteration that hits it and
/// computes nothing takes zero cycles and ties with whatever it wakes;
/// some degrade cores to 33, 50 or 75% speed, keeping one core nominal.
CacheTopology makeRandomTopology(SplitMix64 &Rng) {
  static const unsigned LineSizes[] = {32, 48, 64, 96};
  static const unsigned SetCounts[] = {2, 3, 4, 5, 7, 8, 12, 16};
  static const unsigned Speeds[] = {33, 50, 75};

  auto params = [&](unsigned Level) {
    CacheParams P;
    P.Assoc = 1 + static_cast<unsigned>(Rng.nextBelow(4));
    P.LineSize = LineSizes[Rng.nextBelow(4)];
    const unsigned Sets = SetCounts[Rng.nextBelow(8)] * Level;
    P.SizeBytes = static_cast<std::uint64_t>(Sets) * P.Assoc * P.LineSize;
    P.LatencyCycles = Level * (2 + static_cast<unsigned>(Rng.nextBelow(6)));
    return P;
  };

  CacheTopology T("rand", 60 + static_cast<unsigned>(Rng.nextBelow(140)));
  const bool ThreeLevels = Rng.nextBelow(2) == 0;
  const bool ZeroLatencyL1 = Rng.nextBelow(4) == 0;
  const unsigned NumShared = 1 + static_cast<unsigned>(Rng.nextBelow(2));
  const unsigned CoresPerShared = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned S = 0; S != NumShared; ++S) {
    unsigned Parent = T.rootId();
    if (ThreeLevels)
      Parent = T.addCache(T.rootId(), 3, params(3));
    const unsigned L2 = T.addCache(Parent, 2, params(2));
    for (unsigned C = 0; C != CoresPerShared; ++C) {
      CacheParams L1 = params(1);
      if (ZeroLatencyL1)
        L1.LatencyCycles = 0;
      T.addCache(L2, 1, L1);
    }
  }
  T.finalize();

  if (T.numCores() > 1 && Rng.nextBelow(3) == 0) {
    const unsigned Nominal = static_cast<unsigned>(Rng.nextBelow(T.numCores()));
    for (unsigned C = 0; C != T.numCores(); ++C)
      if (C != Nominal && Rng.nextBelow(2) == 0)
        T.setCoreSpeed(C, Speeds[Rng.nextBelow(3)]);
  }
  return T;
}

/// A random partition of [0, NumIterations) over \p NumCores, in shuffled
/// order, split at random cut points (some cores may get nothing).
std::vector<std::vector<std::uint32_t>>
makeRandomPartition(std::uint32_t NumIterations, unsigned NumCores,
                    SplitMix64 &Rng) {
  std::vector<std::uint32_t> Ids(NumIterations);
  for (std::uint32_t I = 0; I != NumIterations; ++I)
    Ids[I] = I;
  for (std::uint32_t I = NumIterations; I > 1; --I) {
    const std::uint32_t J = static_cast<std::uint32_t>(Rng.nextBelow(I));
    std::swap(Ids[I - 1], Ids[J]);
  }
  std::vector<std::uint32_t> Cuts;
  for (unsigned C = 0; C + 1 < NumCores; ++C)
    Cuts.push_back(static_cast<std::uint32_t>(Rng.nextBelow(NumIterations + 1)));
  Cuts.push_back(0);
  Cuts.push_back(NumIterations);
  std::sort(Cuts.begin(), Cuts.end());

  std::vector<std::vector<std::uint32_t>> PerCore(NumCores);
  for (unsigned C = 0; C != NumCores; ++C)
    PerCore[C].assign(Ids.begin() + Cuts[C], Ids.begin() + Cuts[C + 1]);
  return PerCore;
}

/// The three synchronization regimes the engine supports.
enum class Regime { FreeRunning, Barriers, PointToPoint };
constexpr Regime AllRegimes[] = {Regime::FreeRunning, Regime::Barriers,
                                 Regime::PointToPoint};

/// A random mapping in synchronization regime \p Mode.
Mapping makeRandomMapping(std::uint32_t NumIterations, unsigned NumCores,
                          Regime Mode, SplitMix64 &Rng) {
  Mapping Map;
  Map.StrategyName = "random";
  Map.NumCores = NumCores;
  Map.CoreIterations = makeRandomPartition(NumIterations, NumCores, Rng);

  if (Mode == Regime::FreeRunning) { // one round, no barriers
    Map.NumRounds = 1;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Map.RoundEnd[C].push_back(Map.CoreIterations[C].size());
    Map.BarriersRequired = false;
  } else if (Mode == Regime::Barriers) { // multi-round barriers
    Map.NumRounds = 2 + static_cast<unsigned>(Rng.nextBelow(2));
    Map.BarriersRequired = true;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C) {
      const std::uint32_t N = Map.CoreIterations[C].size();
      std::vector<std::uint32_t> Ends;
      for (unsigned R = 0; R + 1 < Map.NumRounds; ++R)
        Ends.push_back(static_cast<std::uint32_t>(Rng.nextBelow(N + 1)));
      std::sort(Ends.begin(), Ends.end());
      Ends.push_back(N);
      Map.RoundEnd[C] = std::move(Ends);
    }
  } else { // point-to-point, PredCore < Core so no cycle can deadlock
    Map.NumRounds = 1;
    Map.RoundEnd.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Map.RoundEnd[C].push_back(Map.CoreIterations[C].size());
    Map.Sync = SyncMode::PointToPoint;
    for (unsigned C = 1; C != NumCores; ++C) {
      const std::uint32_t N = Map.CoreIterations[C].size();
      if (N == 0)
        continue;
      const unsigned NumDeps = static_cast<unsigned>(Rng.nextBelow(3));
      for (unsigned D = 0; D != NumDeps; ++D) {
        SyncDep Dep;
        Dep.Core = C;
        Dep.StartPos = static_cast<std::uint32_t>(Rng.nextBelow(N));
        Dep.PredCore = static_cast<unsigned>(Rng.nextBelow(C));
        Dep.PredEndPos = static_cast<std::uint32_t>(Rng.nextBelow(
            Map.CoreIterations[Dep.PredCore].size() + 1));
        Map.PointDeps.push_back(Dep);
      }
    }
  }
  return Map;
}

void expectIdentical(const ExecutionResult &Fast, const ExecutionResult &Ref,
                     std::uint64_t Seed) {
  EXPECT_EQ(Fast.TotalCycles, Ref.TotalCycles) << "seed " << Seed;
  ASSERT_EQ(Fast.CoreCycles.size(), Ref.CoreCycles.size()) << "seed " << Seed;
  for (std::size_t C = 0; C != Fast.CoreCycles.size(); ++C)
    EXPECT_EQ(Fast.CoreCycles[C], Ref.CoreCycles[C])
        << "core " << C << " seed " << Seed;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(Fast.Stats.Levels[L].Lookups, Ref.Stats.Levels[L].Lookups)
        << "L" << L << " lookups, seed " << Seed;
    EXPECT_EQ(Fast.Stats.Levels[L].Hits, Ref.Stats.Levels[L].Hits)
        << "L" << L << " hits, seed " << Seed;
  }
  EXPECT_EQ(Fast.Stats.MemoryAccesses, Ref.Stats.MemoryAccesses)
      << "seed " << Seed;
  EXPECT_EQ(Fast.Stats.TotalAccesses, Ref.Stats.TotalAccesses)
      << "seed " << Seed;

  // Per-cache-instance statistics: the fast path's probe() and the
  // reference path's access()+fill() count lookups, hits and evictions
  // with separate code; they must agree cache for cache.
  ASSERT_EQ(Fast.PerCache.size(), Ref.PerCache.size()) << "seed " << Seed;
  for (std::size_t I = 0; I != Fast.PerCache.size(); ++I) {
    const CacheNodeStats &F = Fast.PerCache[I];
    const CacheNodeStats &R = Ref.PerCache[I];
    EXPECT_EQ(F.NodeId, R.NodeId) << "seed " << Seed;
    EXPECT_EQ(F.Level, R.Level) << "seed " << Seed;
    EXPECT_EQ(F.Lookups, R.Lookups) << "node " << F.NodeId << " seed " << Seed;
    EXPECT_EQ(F.Hits, R.Hits) << "node " << F.NodeId << " seed " << Seed;
    EXPECT_EQ(F.Evictions, R.Evictions)
        << "node " << F.NodeId << " seed " << Seed;
  }

  // The per-level aggregates must be exactly the per-cache sums (same
  // events, two bookkeeping granularities).
  std::uint64_t LevelLookups[SimStats::MaxLevels + 1] = {};
  std::uint64_t LevelHits[SimStats::MaxLevels + 1] = {};
  for (const CacheNodeStats &C : Fast.PerCache) {
    ASSERT_LE(C.Level, SimStats::MaxLevels) << "seed " << Seed;
    LevelLookups[C.Level] += C.Lookups;
    LevelHits[C.Level] += C.Hits;
  }
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    EXPECT_EQ(LevelLookups[L], Fast.Stats.Levels[L].Lookups)
        << "L" << L << " seed " << Seed;
    EXPECT_EQ(LevelHits[L], Fast.Stats.Levels[L].Hits)
        << "L" << L << " seed " << Seed;
  }
}

void expectSameEvents(const TraceLog &Got, const TraceLog &Ref,
                      std::uint64_t Seed) {
  EXPECT_EQ(Got.totalEvents(), Ref.totalEvents()) << "seed " << Seed;
  EXPECT_EQ(Got.droppedEvents(), Ref.droppedEvents()) << "seed " << Seed;
  const std::vector<TraceEvent> GotEvents = Got.events();
  const std::vector<TraceEvent> RefEvents = Ref.events();
  ASSERT_EQ(GotEvents.size(), RefEvents.size()) << "seed " << Seed;
  for (std::size_t I = 0; I != GotEvents.size(); ++I) {
    const TraceEvent &G = GotEvents[I];
    const TraceEvent &R = RefEvents[I];
    ASSERT_TRUE(G.Cycle == R.Cycle && G.Core == R.Core && G.Node == R.Node &&
                G.Kind == R.Kind && G.Payload == R.Payload)
        << "event " << I << " seed " << Seed << ": cycle " << G.Cycle
        << " vs " << R.Cycle << ", core " << G.Core << " vs " << R.Core
        << ", node " << G.Node << " vs " << R.Node << ", payload "
        << G.Payload << " vs " << R.Payload;
  }
}

/// One random program, topology and compiled trace. Each regime's mapping
/// draws from the same generator state, so a seed names one configuration
/// per regime.
struct RandomConfig {
  SplitMix64 Rng;
  Program Prog;
  CacheTopology Topo;
  IterationTable Table;
  AddressMap Addrs;
  AccessTrace Trace;

  explicit RandomConfig(std::uint64_t Seed)
      : Rng(Seed), Prog(makeRandomProgram(Rng)), Topo(makeRandomTopology(Rng)),
        Table(Prog.Nests[0].enumerate()), Addrs(Prog.Arrays),
        Trace(AccessTrace::compile(Prog, 0, Table, Addrs)) {}

  Mapping mapping(Regime Mode) const {
    SplitMix64 MapRng = Rng;
    return makeRandomMapping(Table.size(), Topo.numCores(), Mode, MapRng);
  }

  bool zeroLatencyL1() const {
    return Topo.node(Topo.l1Of(0)).Params.LatencyCycles == 0;
  }
};

} // namespace

TEST(SimEquivalence, RandomizedConfigurations) {
  // Every seed runs in all three regimes against the reference engine on
  // fresh machines, then again on the now-warm machines so persistent
  // cache state is compared too, at one and two phase-1 threads.
  unsigned Degraded = 0, ZeroLatency = 0;
  for (std::uint64_t Seed = 1; Seed <= 60; ++Seed) {
    const RandomConfig Cfg(Seed);
    Degraded += !Cfg.Topo.uniformSpeed();
    ZeroLatency += Cfg.zeroLatencyL1();
    for (Regime Mode : AllRegimes) {
      SCOPED_TRACE("regime " + std::to_string(static_cast<int>(Mode)));
      const Mapping Map = Cfg.mapping(Mode);
      ASSERT_TRUE(Map.validate());
      MachineSim RefSim(Cfg.Topo);
      const ExecutionResult RefCold = executeMappingReference(
          RefSim, Cfg.Prog, 0, Cfg.Table, Map, Cfg.Addrs);
      const ExecutionResult RefWarm = executeMappingReference(
          RefSim, Cfg.Prog, 0, Cfg.Table, Map, Cfg.Addrs);
      for (unsigned Threads : {1u, 2u}) {
        SCOPED_TRACE("threads " + std::to_string(Threads));
        SimExec Exec;
        Exec.Threads = Threads;
        MachineSim Sim(Cfg.Topo);
        expectIdentical(executeTrace(Sim, Cfg.Trace, Map, Exec), RefCold,
                        Seed);
        expectIdentical(executeTrace(Sim, Cfg.Trace, Map, Exec), RefWarm,
                        Seed);
      }
    }
  }
  EXPECT_GT(Degraded, 0u);
  EXPECT_GT(ZeroLatency, 0u);
}

TEST(SimEquivalence, ThreadCountNeverChangesResults) {
  // Hardware-sized pools (0) and counts exceeding the core count (7) must
  // agree with one thread, cold and warm, in every regime.
  for (std::uint64_t Seed = 201; Seed <= 240; ++Seed) {
    const RandomConfig Cfg(Seed);
    for (Regime Mode : AllRegimes) {
      SCOPED_TRACE("regime " + std::to_string(static_cast<int>(Mode)));
      const Mapping Map = Cfg.mapping(Mode);
      MachineSim OneSim(Cfg.Topo);
      const ExecutionResult OneCold = executeTrace(OneSim, Cfg.Trace, Map);
      const ExecutionResult OneWarm = executeTrace(OneSim, Cfg.Trace, Map);
      for (unsigned Threads : {0u, 7u}) {
        SimExec Exec;
        Exec.Threads = Threads;
        MachineSim Sim(Cfg.Topo);
        expectIdentical(executeTrace(Sim, Cfg.Trace, Map, Exec), OneCold,
                        Seed);
        expectIdentical(executeTrace(Sim, Cfg.Trace, Map, Exec), OneWarm,
                        Seed);
      }
    }
  }
}

TEST(SimEquivalence, TracedEventStreamsMatchReference) {
  // A traced run records every iteration and walks every access through
  // MachineSim::access in phase 2: its event stream — cycle, core, node,
  // kind and payload of each event — must equal the reference engine's
  // at one and four phase-1 threads.
  unsigned Degraded = 0;
  for (std::uint64_t Seed = 301; Seed <= 330; ++Seed) {
    const RandomConfig Cfg(Seed);
    Degraded += !Cfg.Topo.uniformSpeed();
    for (Regime Mode : AllRegimes) {
      SCOPED_TRACE("regime " + std::to_string(static_cast<int>(Mode)));
      const Mapping Map = Cfg.mapping(Mode);
      MachineSim RefSim(Cfg.Topo);
      TraceLog RefLog;
      RefSim.setTraceLog(&RefLog);
      const ExecutionResult Ref = executeMappingReference(
          RefSim, Cfg.Prog, 0, Cfg.Table, Map, Cfg.Addrs);
      for (unsigned Threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(Threads));
        SimExec Exec;
        Exec.Threads = Threads;
        MachineSim Sim(Cfg.Topo);
        TraceLog Log;
        Sim.setTraceLog(&Log);
        expectIdentical(executeTrace(Sim, Cfg.Trace, Map, Exec), Ref, Seed);
        expectSameEvents(Log, RefLog, Seed);
      }
    }
  }
  EXPECT_GT(Degraded, 0u);
}

TEST(SimEquivalence, SimThreadsArtifactsByteEqual) {
  // End to end through serve::Service: the same task run cold under
  // --sim-threads=1 and --sim-threads=4 must produce byte-identical run
  // artifacts, engine counters included, once the wall-clock phases are
  // stripped — in particular the same fingerprint: thread count is
  // deliberately not part of the cache key.
  auto runWith = [](unsigned SimThreads) {
    serve::Service::Config Cfg;
    Cfg.Jobs = 1;
    Cfg.SimThreads = SimThreads;
    serve::Service Svc(Cfg);
    RunTask Task = makeRunTask(makeWorkload("cg"),
                               makeDunnington().scaledCapacity(1.0 / 32),
                               Strategy::TopologyAware,
                               ExperimentConfig::makeDefaultOptions(),
                               "cg/dunnington/topology-aware");
    return Svc.runOne(Task).Artifact;
  };

  obs::RunArtifact Seq = runWith(1);
  obs::RunArtifact Par = runWith(4);
  EXPECT_EQ(Seq.Fingerprint, Par.Fingerprint);

  for (obs::RunArtifact *A : {&Seq, &Par}) {
    A->MappingSeconds = 0.0; // wall clock
    A->Phases.clear();       // wall clock
  }
  obs::JsonWriter SeqW, ParW;
  Seq.writeJson(SeqW);
  Par.writeJson(ParW);
  EXPECT_EQ(SeqW.str(), ParW.str());
}

TEST(SimEquivalence, TraceRegistrySharesOneCompilation) {
  SplitMix64 Rng(123);
  Program Prog = makeRandomProgram(Rng);
  TraceRegistry::clear();
  std::shared_ptr<const AccessTrace> A =
      TraceRegistry::getOrCompile(Prog, 0, 1u << 26);
  std::shared_ptr<const AccessTrace> B =
      TraceRegistry::getOrCompile(Prog, 0, 1u << 26);
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(TraceRegistry::residentTraces(), 1u);

  // A different enumeration limit is a different trace key: the limit
  // changes abort behavior, so sharing across limits would be unsound.
  std::uint64_t KeyA = traceFingerprint(Prog, 0, 1u << 26);
  std::uint64_t KeyB = traceFingerprint(Prog, 0, 1u << 20);
  EXPECT_NE(KeyA, KeyB);
  TraceRegistry::clear();
  EXPECT_EQ(TraceRegistry::residentTraces(), 0u);
}

TEST(SimEquivalence, TraceMatchesNaiveAddressComputation) {
  // Every trace row must equal the addresses the naive evaluateAccess +
  // linearize path computes for that iteration, access for access.
  for (std::uint64_t Seed = 101; Seed <= 110; ++Seed) {
    SplitMix64 Rng(Seed);
    Program Prog = makeRandomProgram(Rng);
    const LoopNest &Nest = Prog.Nests[0];
    IterationTable Table = Nest.enumerate();
    AddressMap Addrs(Prog.Arrays);
    AccessTrace Trace = AccessTrace::compile(Prog, 0, Table, Addrs);
    ASSERT_EQ(Trace.numIterations(), Table.size());
    ASSERT_EQ(Trace.numAccesses(), Nest.accesses().size());

    std::vector<std::int64_t> Point(Nest.depth());
    std::vector<std::int64_t> Idx;
    for (std::uint32_t It = 0; It != Table.size(); ++It) {
      Table.get(It, Point.data());
      const std::uint64_t *Row = Trace.row(It);
      for (unsigned A = 0; A != Trace.numAccesses(); ++A) {
        const ArrayAccess &Acc = Nest.accesses()[A];
        const ArrayDecl &Array = Prog.Arrays[Acc.ArrayId];
        Idx.assign(Acc.Subscripts.size(), 0);
        evaluateAccess(Acc, Array, Point.data(), Idx.data());
        const std::uint64_t Expected =
            Addrs.addrOf(Acc.ArrayId, Array.linearize(Idx.data()));
        EXPECT_EQ(Row[A], Expected)
            << "iteration " << It << " access " << A << " seed " << Seed;
        EXPECT_EQ(Trace.isWrite(A), Acc.IsWrite);
      }
    }
  }
}
