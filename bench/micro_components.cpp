//===- bench/micro_components.cpp - component micro-benchmarks ------------===//
//
// google-benchmark timings of the pipeline's building blocks: tagging,
// coarsening, clustering, local scheduling, the cache simulator's
// access path, and the exec/ subsystem's pool dispatch and fingerprint
// hashing. These are engineering benchmarks (no paper counterpart); they
// guard against performance regressions in the pass itself.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"
#include "exec/Fingerprint.h"
#include "support/ThreadPool.h"
#include "obs/RunArtifact.h"

#include "core/DataBlockModel.h"
#include "core/HierarchicalClusterer.h"
#include "core/LocalScheduler.h"
#include "core/Tagger.h"
#include "sim/MachineSim.h"
#include "topo/Presets.h"
#include "workloads/Generators.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

using namespace cta;

namespace {

Program benchProgram() { return makeStencil2D("bench", 128, 1); }

void BM_Tagging(benchmark::State &State) {
  Program P = benchProgram();
  DataBlockModel Blocks(P.Arrays, 256);
  for (auto _ : State) {
    TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
    benchmark::DoNotOptimize(R.Groups.size());
  }
}
BENCHMARK(BM_Tagging);

void BM_Coarsening(benchmark::State &State) {
  Program P = benchProgram();
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  for (auto _ : State) {
    std::vector<IterationGroup> Groups = R.Groups;
    coarsenGroups(Groups, 256);
    benchmark::DoNotOptimize(Groups.size());
  }
}
BENCHMARK(BM_Coarsening);

void BM_Clustering(benchmark::State &State) {
  Program P = benchProgram();
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  coarsenGroups(R.Groups, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  for (auto _ : State) {
    std::vector<IterationGroup> Groups = R.Groups;
    ClusteringResult C = clusterForTopology(std::move(Groups), Topo, 0.10);
    benchmark::DoNotOptimize(C.CoreGroups.size());
  }
}
BENCHMARK(BM_Clustering);

void BM_LocalScheduling(benchmark::State &State) {
  Program P = benchProgram();
  DataBlockModel Blocks(P.Arrays, 256);
  TaggingResult R = buildIterationGroups(P.Nests[0], P.Arrays, Blocks);
  coarsenGroups(R.Groups, 256);
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  ClusteringResult C =
      clusterForTopology(std::move(R.Groups), Topo, 0.10);
  SchedulerDependences Deps = makeNoDependences(C.Groups.size());
  for (auto _ : State) {
    ScheduleResult S = scheduleGroups(C.Groups, C.CoreGroups, Deps, Topo,
                                      0.5, 0.5);
    benchmark::DoNotOptimize(S.NumRounds);
  }
}
BENCHMARK(BM_LocalScheduling);

void BM_CacheAccessHit(benchmark::State &State) {
  CacheTopology Topo = makeDunnington();
  MachineSim Sim(Topo);
  Sim.access(0, 0, false); // warm the line
  std::uint64_t Total = 0;
  for (auto _ : State)
    Total += Sim.access(0, 0, false);
  benchmark::DoNotOptimize(Total);
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessStream(benchmark::State &State) {
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MachineSim Sim(Topo);
  std::uint64_t Addr = 0, Total = 0;
  for (auto _ : State) {
    Total += Sim.access(0, Addr, false);
    Addr += 64;
  }
  benchmark::DoNotOptimize(Total);
}
BENCHMARK(BM_CacheAccessStream);

void BM_BlockSizeSelection(benchmark::State &State) {
  Program P = benchProgram();
  for (auto _ : State) {
    std::uint64_t B = selectBlockSize(P.Nests[0], P.Arrays, 1024);
    benchmark::DoNotOptimize(B);
  }
}
BENCHMARK(BM_BlockSizeSelection);

void BM_ThreadPoolParallelFor(benchmark::State &State) {
  // Dispatch overhead of a 256-element parallelFor with trivial bodies:
  // measures pool plumbing, not useful work.
  ThreadPool Pool(2);
  std::atomic<std::uint64_t> Sink{0};
  for (auto _ : State) {
    parallelFor(&Pool, 0, 256, [&](std::size_t I) {
      Sink.fetch_add(I, std::memory_order_relaxed);
    });
  }
  benchmark::DoNotOptimize(Sink.load());
}
BENCHMARK(BM_ThreadPoolParallelFor);

void BM_RunFingerprint(benchmark::State &State) {
  Program P = benchProgram();
  CacheTopology Topo = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts;
  for (auto _ : State) {
    std::uint64_t Key = runFingerprint(P, Topo, nullptr,
                                       Strategy::TopologyAware, Opts);
    benchmark::DoNotOptimize(Key);
  }
}
BENCHMARK(BM_RunFingerprint);

} // namespace

// Hand-rolled BENCHMARK_MAIN(): the shared CTA exec flags (the table in
// exec/ExecConfig.h, and their envs) are parsed and stripped before
// google-benchmark sees argv, so running every bench with the same flag
// set does not trip its unknown-flag rejection. --emit-json
// writes a process-level artifact (counters the benchmarked components
// bumped in the root sink); google-benchmark owns stdout as usual.
int main(int argc, char **argv) {
  ExecConfig Config = parseExecArgs(argc, argv);

  const std::vector<std::string> Args(argv, argv + argc);
  std::vector<char *> Filtered = {argv[0]};
  std::string Value;
  for (std::size_t I = 1; I < Args.size(); ++I) {
    const std::size_t At = I;
    if (matchExecFlag(Args, I, Value) == nullptr)
      Filtered.push_back(argv[At]);
  }
  Filtered.push_back(nullptr);
  int FilteredArgc = static_cast<int>(Filtered.size()) - 1;

  benchmark::Initialize(&FilteredArgc, Filtered.data());
  if (benchmark::ReportUnrecognizedArguments(FilteredArgc, Filtered.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!Config.EmitJsonPath.empty()) {
    obs::BenchArtifact Artifact;
    Artifact.Bench = Config.BenchName;
    Artifact.Jobs = Config.Jobs == 0 ? ThreadPool::defaultThreadCount()
                                     : Config.Jobs;
    Artifact.ProcessCounters = obs::MetricSink::root().snapshot();
    Artifact.ProcessPhases = obs::MetricSink::root().phases();
    std::string Err;
    if (!Artifact.writeFile(Config.EmitJsonPath, &Err)) {
      std::fprintf(stderr, "cannot write --emit-json artifact: %s\n",
                   Err.c_str());
      return 1;
    }
  }
  return 0;
}
