//===- tests/engine_test.cpp - Execution engine tests ---------------------===//

#include "core/Baselines.h"
#include "sim/Engine.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"

#include <gtest/gtest.h>

using namespace cta;

namespace {

CacheTopology makeTiny() {
  CacheTopology T("tiny", 100);
  unsigned L2 = T.addCache(T.rootId(), 2, {1024, 8, 64, 10});
  T.addCache(L2, 1, {128, 2, 64, 2});
  T.addCache(L2, 1, {128, 2, 64, 2});
  T.finalize();
  return T;
}

} // namespace

TEST(AddressMap, ArraysArePageAlignedAndDisjoint) {
  std::vector<ArrayDecl> Arrays = {ArrayDecl("A", {100}, 8),
                                   ArrayDecl("B", {100}, 8)};
  AddressMap M(Arrays);
  EXPECT_EQ(M.baseOf(0) % AddressMap::PageSize, 0u);
  EXPECT_EQ(M.baseOf(1) % AddressMap::PageSize, 0u);
  EXPECT_GE(M.baseOf(1), M.baseOf(0) + 800);
  EXPECT_EQ(M.addrOf(0, 3), M.baseOf(0) + 24);
  EXPECT_NE(M.addrOf(0, 99), M.addrOf(1, 0));
}

TEST(Engine, SingleCoreCycleAccounting) {
  // One core, one iteration, one read: cycles = memLatency + compute.
  Program P;
  unsigned A = P.addArray(ArrayDecl("A", {8}));
  LoopNest Nest("one", 1);
  Nest.addConstantDim(0, 0);
  Nest.addAccess(ArrayAccess(A, {Nest.iv(0)}));
  Nest.setComputeCyclesPerIteration(3);
  P.Nests.push_back(std::move(Nest));

  CacheTopology T("solo", 50);
  T.addCache(T.rootId(), 1, {128, 2, 64, 2});
  T.finalize();

  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();
  Mapping Map = mapBase(Table, 1);
  ExecutionResult R = executeMapping(Sim, P, 0, Table, Map, Addrs);
  EXPECT_EQ(R.TotalCycles, 53u);
}

TEST(Engine, TotalIsMaxOverCores) {
  Program P = makeStencil1D("s", 130, 1);
  CacheTopology T = makeTiny();
  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();
  Mapping Map = mapBase(Table, 2);
  ExecutionResult R = executeMapping(Sim, P, 0, Table, Map, Addrs);
  EXPECT_EQ(R.TotalCycles,
            std::max(R.CoreCycles[0], R.CoreCycles[1]));
  EXPECT_GT(R.TotalCycles, 0u);
}

TEST(Engine, BarrierSynchronizesRounds) {
  // Two cores; core 0's round-0 work is 3 iterations, core 1's is 1; the
  // barrier should lift core 1's clock to core 0's before round 1.
  Program P = makeStencil1D("s", 10, 1);
  CacheTopology T = makeTiny();
  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate(); // 8 iterations

  Mapping Map;
  Map.StrategyName = "manual";
  Map.NumCores = 2;
  Map.CoreIterations = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  Map.RoundEnd = {{3, 4}, {1, 4}};
  Map.NumRounds = 2;
  Map.BarriersRequired = true;
  Map.Sync = SyncMode::Barrier;
  ASSERT_TRUE(Map.validate());

  ExecutionResult R = executeMapping(Sim, P, 0, Table, Map, Addrs);
  // With a barrier, both cores finish within one iteration's cost of each
  // other only if the second-round work is symmetric (1 vs 3): just check
  // execution completed and both clocks advanced.
  EXPECT_GT(R.CoreCycles[0], 0u);
  EXPECT_GT(R.CoreCycles[1], 0u);

  // Barrier effect: run again without barriers; the slower core can only
  // get faster or equal.
  MachineSim Sim2(T);
  Mapping NoBar = Map;
  NoBar.BarriersRequired = false;
  ExecutionResult R2 = executeMapping(Sim2, P, 0, Table, NoBar, Addrs);
  EXPECT_LE(R2.TotalCycles, R.TotalCycles);
}

TEST(Engine, PointToPointWaitDelaysConsumer) {
  Program P = makeStencil1D("s", 10, 1);
  CacheTopology T = makeTiny();
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate(); // 8 iterations

  Mapping Map;
  Map.StrategyName = "p2p";
  Map.NumCores = 2;
  Map.CoreIterations = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  Map.RoundEnd = {{4}, {4}};
  Map.NumRounds = 1;
  Map.Sync = SyncMode::PointToPoint;
  // Core 1 cannot start until core 0 finished all 4 iterations.
  Map.PointDeps.push_back({0, 4, 1, 0});

  MachineSim Sim(T);
  ExecutionResult R = executeMapping(Sim, P, 0, Table, Map, Addrs);
  // Core 1 must finish strictly after core 0.
  EXPECT_GT(R.CoreCycles[1], R.CoreCycles[0]);

  // Without the wait, both run concurrently from cycle 0.
  Map.PointDeps.clear();
  Map.Sync = SyncMode::Barrier;
  MachineSim Sim2(T);
  ExecutionResult R2 = executeMapping(Sim2, P, 0, Table, Map, Addrs);
  EXPECT_LT(R2.TotalCycles, R.TotalCycles);
}

TEST(Engine, PointToPointSatisfiedWaitIsFree) {
  Program P = makeStencil1D("s", 10, 1);
  CacheTopology T = makeTiny();
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();

  Mapping Map;
  Map.NumCores = 2;
  Map.CoreIterations = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  Map.RoundEnd = {{4}, {4}};
  Map.NumRounds = 1;
  Map.Sync = SyncMode::PointToPoint;
  // Wait on an empty prefix: trivially satisfied.
  Map.PointDeps.push_back({0, 0, 1, 0});

  MachineSim Sim(T);
  ExecutionResult R = executeMapping(Sim, P, 0, Table, Map, Addrs);
  EXPECT_GT(R.TotalCycles, 0u);
}

TEST(Engine, RejectsNonPartitionMappings) {
  Program P = makeStencil1D("s", 10, 1);
  CacheTopology T = makeTiny();
  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();
  Mapping Map;
  Map.NumCores = 2;
  Map.CoreIterations = {{0, 1}, {1, 2}}; // duplicate iteration 1
  EXPECT_DEATH(executeMapping(Sim, P, 0, Table, Map, Addrs),
               "partition");
}

TEST(Engine, RejectsWorkOnADisabledCore) {
  Program P = makeStencil1D("s", 10, 1);
  CacheTopology T = makeTiny();
  T.setCoreSpeed(1, 0);
  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();
  Mapping Map = mapBase(Table, 2);
  EXPECT_DEATH(executeMapping(Sim, P, 0, Table, Map, Addrs),
               "work to disabled core 1");
}

TEST(Engine, CachesStayWarmAcrossCalls) {
  Program P = makeStencil1D("s", 40, 1); // data set fits the shared L2
  CacheTopology T = makeTiny();
  MachineSim Sim(T);
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();
  Mapping Map = mapBase(Table, 2);

  ExecutionResult Cold = executeMapping(Sim, P, 0, Table, Map, Addrs);
  ExecutionResult Warm = executeMapping(Sim, P, 0, Table, Map, Addrs);
  EXPECT_LT(Warm.TotalCycles, Cold.TotalCycles);
  EXPECT_LT(Warm.Stats.MemoryAccesses, Cold.Stats.MemoryAccesses);
}

TEST(Engine, ZeroLatencyPrefixCompletesAtCycleZero) {
  // Regression test for the completion-cycle sentinel: a watched prefix
  // can legitimately finish at cycle 0 (zero compute cost, no memory
  // accesses), and "finished at 0" must not read as "not yet finished".
  // With a 0-valued sentinel the consumer either deadlocks or inherits a
  // garbage ready time; with the UINT64_MAX sentinel it starts at once.
  Program P;
  LoopNest Nest("free", 1);
  Nest.addConstantDim(0, 7); // 8 iterations, no accesses
  Nest.setComputeCyclesPerIteration(0);
  P.Nests.push_back(std::move(Nest));

  CacheTopology T = makeTiny();
  AddressMap Addrs(P.Arrays);
  IterationTable Table = P.Nests[0].enumerate();

  Mapping Map;
  Map.StrategyName = "p2p-zero";
  Map.NumCores = 2;
  Map.CoreIterations = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  Map.RoundEnd = {{4}, {4}};
  Map.NumRounds = 1;
  Map.Sync = SyncMode::PointToPoint;
  // Core 1 waits for core 0's whole (zero-cost) chunk before iteration 0.
  Map.PointDeps.push_back({0, 4, 1, 0});

  MachineSim FastSim(T);
  ExecutionResult Fast = executeMapping(FastSim, P, 0, Table, Map, Addrs);
  EXPECT_EQ(Fast.CoreCycles[0], 0u);
  EXPECT_EQ(Fast.CoreCycles[1], 0u);
  EXPECT_EQ(Fast.TotalCycles, 0u);

  MachineSim RefSim(T);
  ExecutionResult Ref = executeMappingReference(RefSim, P, 0, Table, Map, Addrs);
  EXPECT_EQ(Ref.TotalCycles, Fast.TotalCycles);
  EXPECT_EQ(Ref.CoreCycles[1], Fast.CoreCycles[1]);
  EXPECT_EQ(Ref.Stats.TotalAccesses, Fast.Stats.TotalAccesses);
}
