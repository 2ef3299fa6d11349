//===- tests/experiment_test.cpp - Experiment harness tests ---------------===//

#include "driver/Experiment.h"
#include "exec/ExperimentRunner.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <array>

using namespace cta;

namespace {

ExperimentConfig smallConfig() {
  ExperimentConfig C;
  C.TopologyScale = 1.0 / 64;
  return C;
}

} // namespace

TEST(Experiment, RunsAndReports) {
  Program P = makeWorkload("galgel", 0.1);
  CacheTopology M = makeDunnington();
  RunResult R = runExperiment(P, M, Strategy::Base, smallConfig());
  EXPECT_GT(R.Cycles, 0u);
  EXPECT_GT(R.Stats.TotalAccesses, 0u);
  EXPECT_GT(R.Stats.Levels[1].Lookups, 0u);
}

TEST(Experiment, StrategiesShareTheWorkAmount) {
  Program P = makeWorkload("cg", 0.1);
  CacheTopology M = makeDunnington();
  ExperimentConfig C = smallConfig();
  RunResult Base = runExperiment(P, M, Strategy::Base, C);
  RunResult Topo = runExperiment(P, M, Strategy::TopologyAware, C);
  // Same iterations, same references: identical access counts.
  EXPECT_EQ(Base.Stats.TotalAccesses, Topo.Stats.TotalAccesses);
}

TEST(Experiment, CrossMachineRuns) {
  Program P = makeWorkload("galgel", 0.1);
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 64);
  CacheTopology Har = makeHarpertown().scaledCapacity(1.0 / 64);
  MappingOptions O;
  O.BlockSizeBytes = 0;
  // 12-core Dunnington version folded onto 8-core Harpertown.
  RunResult R = runCrossMachine(P, Dun, Har, Strategy::TopologyAware, O);
  EXPECT_GT(R.Cycles, 0u);
  // Native compilation for comparison completes too.
  RunResult Native = runOnMachine(P, Har, Strategy::TopologyAware, O);
  EXPECT_GT(Native.Cycles, 0u);
}

TEST(Experiment, CrossMachineSameCoreCountIsNative) {
  Program P = makeWorkload("sp", 0.1);
  CacheTopology Har = makeHarpertown().scaledCapacity(1.0 / 64);
  CacheTopology Neh = makeNehalem().scaledCapacity(1.0 / 64);
  MappingOptions O;
  O.BlockSizeBytes = 0;
  // Harpertown and Nehalem both have 8 cores: no folding needed, but the
  // mapping was optimized for the wrong hierarchy.
  RunResult Cross = runCrossMachine(P, Har, Neh, Strategy::TopologyAware, O);
  EXPECT_GT(Cross.Cycles, 0u);
}

TEST(Experiment, MappingSecondsTracked) {
  Program P = makeWorkload("galgel", 0.1);
  CacheTopology M = makeDunnington();
  RunResult Topo = runExperiment(P, M, Strategy::TopologyAware,
                                 smallConfig());
  RunResult Base = runExperiment(P, M, Strategy::Base, smallConfig());
  // The topology-aware pass does strictly more work than parallelization
  // alone (Section 4.1 reports a 65-94% compile-time overhead).
  EXPECT_GT(Topo.MappingSeconds, Base.MappingSeconds);
}

TEST(Experiment, BlockSizeReported) {
  Program P = makeWorkload("galgel", 0.1);
  CacheTopology M = makeDunnington();
  RunResult R = runExperiment(P, M, Strategy::TopologyAware, smallConfig());
  EXPECT_GE(R.BlockSizeBytes, 256u);
}

TEST(Fig13Oracle, TopologyAwareCyclesMatchTheRecordedSweep) {
  // Simulated cycles of Figure 13's 36 TopologyAware cells (12 apps on
  // the three presets at 1/32 scale), as `fig13_main_comparison
  // --emit-json` records them. Cycles are deterministic, so a change
  // that moves any one app's mapping fails here, not only one that moves
  // a geomean.
  struct MachineRow {
    const char *Preset;
    std::array<std::uint64_t, 12> Cycles; // in workloadNames() order
  };
  const MachineRow Rows[] = {
      {"harpertown",
       {924984, 1796364, 1404928, 1443584, 1610362, 827520, 1617860,
        1564105, 660974, 993700, 723600, 1159711}},
      {"nehalem",
       {574956, 966356, 835584, 999680, 1106260, 576896, 1030864, 1132273,
        421425, 643974, 455200, 936681}},
      {"dunnington",
       {289992, 483561, 409960, 485317, 591108, 277076, 525623, 452172,
        183268, 255357, 232005, 362187}},
  };
  const std::vector<std::string> Apps = workloadNames();
  ASSERT_EQ(Apps.size(), 12u);
  EXPECT_EQ(Apps.front(), "applu");
  EXPECT_EQ(Apps.back(), "h264");

  std::vector<RunTask> Tasks;
  std::vector<std::uint64_t> Want;
  for (const MachineRow &Row : Rows)
    for (std::size_t A = 0; A != Apps.size(); ++A) {
      Tasks.push_back(makeRunTask(
          makeWorkload(Apps[A]),
          makePresetByName(Row.Preset).scaledCapacity(1.0 / 32),
          Strategy::TopologyAware, ExperimentConfig::makeDefaultOptions(),
          std::string(Row.Preset) + "/" + Apps[A]));
      Want.push_back(Row.Cycles[A]);
    }

  ExecConfig Config;
  Config.Jobs = 2;
  ExperimentRunner Runner(Config);
  std::vector<RunResult> Results = Runner.run(Tasks);
  ASSERT_EQ(Results.size(), Tasks.size());
  for (std::size_t I = 0; I != Tasks.size(); ++I)
    EXPECT_EQ(Results[I].Cycles, Want[I]) << Tasks[I].Label;
}
