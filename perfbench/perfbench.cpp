//===- perfbench/perfbench.cpp - In-process halves of the benchmark -------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts of the benchmark that run inside one process, linked against
/// the program's libraries. run.py drives them; perfbench/README.md says
/// what each workload measures.
///
///   perfbench sweep --cache-dir D --out F [--seed N] [--setup-every K]
///                   [--emit-json P] [--trace SPANS]
///       The fig13 grid (12 Table 2 apps x Harpertown, Nehalem, Dunnington
///       at 1/32 x Base, Base+, TopologyAware) at one job with an empty
///       RunCache, through ExperimentRunner::runOne, machine by machine in
///       a seeded order. With --trace the same tasks run step by step
///       through each module's public entry points, one span per call,
///       instead of through the runner.
///
///   perfbench replay --prime F --requests F --cache-dir D --out F
///                    [--spans F] [--repeat N]
///       cta-serve-req-v1 payloads (one per line) replayed in process,
///       once untraced and once traced: parseServeRequest, buildRunTask,
///       Service::fingerprint, lookupWarm, then renderOkResponse for warm
///       keys, or the traced sweep's step-by-step pipeline for cold ones.
///       The untraced pass sends cold work through Service::runOne.
///
///   perfbench degraded-topo
///       The Dunnington preset as .topo text, core 0 at speed=50.
///
//===----------------------------------------------------------------------===//

#include "Probe.h"
#include "Spans.h"

#include "core/Baselines.h"
#include "core/DataBlockModel.h"
#include "core/GroupDependence.h"
#include "core/HierarchicalClusterer.h"
#include "core/LocalScheduler.h"
#include "core/Pipeline.h"
#include "core/Report.h"
#include "core/Tagger.h"
#include "exec/ExperimentRunner.h"
#include "exec/Fingerprint.h"
#include "exec/RunCache.h"
#include "poly/Dependence.h"
#include "runtime/AdaptiveExecutor.h"
#include "serve/Protocol.h"
#include "serve/Service.h"
#include "sim/AccessTrace.h"
#include "sim/MachineSim.h"
#include "support/Hashing.h"
#include "topo/Parse.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <sys/resource.h>
#include <vector>

using namespace cta;
using perfbench::Span;
using perfbench::Tracer;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// --key value pairs after the subcommand.
std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc)
      die("expected --flag value, got '" + Key + "'");
    Flags[Key.substr(2)] = Argv[++I];
  }
  return Flags;
}

std::string flag(const std::map<std::string, std::string> &Flags,
                 const char *Name, const char *Default = nullptr) {
  auto It = Flags.find(Name);
  if (It != Flags.end())
    return It->second;
  if (!Default)
    die(std::string("missing --") + Name);
  return Default;
}

double processCpuSeconds() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return RU.ru_utime.tv_sec + RU.ru_utime.tv_usec * 1e-6 + RU.ru_stime.tv_sec +
         RU.ru_stime.tv_usec * 1e-6;
}

/// A "Name:   123 kB" field of /proc/self/status, in kB (0 if absent).
long statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  const std::size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0)
      return std::strtol(Line.c_str() + Len, nullptr, 10);
  return 0;
}

/// Resets the process's peak RSS to its current RSS, so the growth across
/// one call can be read back from VmHWM.
void resetPeakRss() {
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

std::FILE *openOut(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    die("cannot write " + Path);
  return F;
}

std::uint64_t rootCounter(const char *Name) {
  return obs::MetricSink::root().lookup(Name);
}

std::uint64_t currentCounter(const char *Name) {
  return obs::MetricSink::current().lookup(Name);
}

//===----------------------------------------------------------------------===//
// The step-by-step run
//===----------------------------------------------------------------------===//

/// Mirrors core/Pipeline.cpp's runMappingPipeline one public entry point
/// at a time. Nests with dependences need helpers private to Pipeline.cpp
/// (dependence sharing, split-aware scheduler dependences), so they run
/// whole inside one span labelled core.pipeline_whole, never estimated.
/// The glue this replays (sorting each core's groups by first iteration,
/// the dependence-free scheduler inputs) is checked by the cycle
/// comparison run.py makes against the untraced run, task by task.
Mapping tracedPipeline(const Program &Prog, unsigned NestIdx,
                       const CacheTopology &Machine, Strategy Strat,
                       const MappingOptions &Opts, Tracer *T,
                       std::uint64_t &BlockSizeOut) {
  const LoopNest &Nest = Prog.Nests[NestIdx];
  const unsigned NumCores = Machine.numCores();
  const std::uint64_t L1Capacity = Machine.levelCapacity(1);

  if (Strat == Strategy::Base || Strat == Strategy::BasePlus) {
    Span S(T, "core.baseline");
    IterationTable Table = Nest.enumerate(Opts.MaxIterations);
    return Strat == Strategy::Base
               ? mapBase(Table, NumCores)
               : mapBasePlus(Nest, Prog.Arrays, Table, NumCores, L1Capacity);
  }

  DependenceInfo Deps;
  {
    Span S(T, "core.dependence");
    Deps = analyzeDependences(Nest);
  }
  if (!Deps.empty() || Strat == Strategy::Local || Opts.MaxMapperLevel != 0 ||
      Opts.DepPolicy == DependencePolicy::CoCluster) {
    Span S(T, "core.pipeline_whole");
    PipelineResult P = runMappingPipeline(Prog, NestIdx, Machine, Strat, Opts);
    BlockSizeOut = P.BlockSizeBytes;
    return std::move(P.Map);
  }

  std::uint64_t BlockSize = Opts.BlockSizeBytes;
  DataBlockModel Blocks;
  {
    Span S(T, "core.blocks");
    if (BlockSize == 0)
      BlockSize = selectBlockSize(Nest, Prog.Arrays, L1Capacity);
    Blocks = DataBlockModel(Prog.Arrays, BlockSize);
  }
  BlockSizeOut = BlockSize;

  TaggingResult Tagged;
  {
    Span S(T, "core.tag");
    std::uint64_t Before = currentCounter("tagger.iterations");
    Tagged =
        buildIterationGroups(Nest, Prog.Arrays, Blocks, Opts.MaxIterations);
    S.count("iterations", currentCounter("tagger.iterations") - Before);
    S.count("groups", Tagged.Groups.size());
  }
  {
    Span S(T, "core.coarsen");
    unsigned Target = Opts.MaxGroupsForClustering;
    if (Tagged.Groups.size() > Target &&
        adjacentAffinityFraction(Tagged.Groups) > 0.5)
      Target = std::min(Target, Opts.ChainCoarsenTarget);
    coarsenGroups(Tagged.Groups, Target);
    S.count("groups_out", Tagged.Groups.size());
  }
  GroupDependenceResult DepDAG;
  {
    Span S(T, "core.dependence");
    DepDAG = buildGroupDependences(Nest, Tagged.Iterations,
                                   std::move(Tagged.Groups), Deps, Blocks);
  }
  if (DepDAG.hasDependences())
    die("group dependences without nest dependences in " + Prog.Name);

  ClusteringResult Clustered;
  {
    long RssBefore = 0;
    if (T) {
      resetPeakRss();
      RssBefore = statusKb("VmRSS:");
    }
    Span S(T, "core.cluster");
    S.count("groups_in", DepDAG.Groups.size());
    std::uint64_t Before = currentCounter("clusterer.merges");
    Clustered = clusterForTopology(std::move(DepDAG.Groups), Machine,
                                   Opts.BalanceThreshold);
    S.count("merges", currentCounter("clusterer.merges") - Before);
    S.close();
    if (T)
      S.count("peak_kb", static_cast<double>(statusKb("VmHWM:") - RssBefore));
  }

  Span S(T, "core.schedule");
  if (Strat == Strategy::Combined) {
    SchedulerDependences NoDeps = makeNoDependences(Clustered.Groups.size());
    ScheduleResult Sched =
        scheduleGroups(Clustered.Groups, Clustered.CoreGroups, NoDeps, Machine,
                       Opts.Alpha, Opts.Beta);
    return scheduleToMapping(Clustered.Groups, std::move(Sched), NumCores,
                             strategyName(Strat), &NoDeps,
                             /*UsePointToPoint=*/!Opts.UseBarrierSync);
  }
  // TopologyAware and the adaptive seeds: each core enumerates its groups
  // in first-iteration order.
  for (auto &List : Clustered.CoreGroups)
    std::sort(List.begin(), List.end(), [&](std::uint32_t A, std::uint32_t B) {
      return Clustered.Groups[A].Iterations.front() <
             Clustered.Groups[B].Iterations.front();
    });
  ScheduleResult Direct;
  Direct.CoreOrder = std::move(Clustered.CoreGroups);
  Direct.RoundEnd.resize(NumCores);
  for (unsigned C = 0; C != NumCores; ++C)
    Direct.RoundEnd[C].push_back(Direct.CoreOrder[C].size());
  Direct.NumRounds = 1;
  return scheduleToMapping(Clustered.Groups, std::move(Direct), NumCores,
                           strategyName(Strat));
}

void addSharing(MappingReport &Into, const MappingReport &R) {
  Into.TotalSharing += R.TotalSharing;
  for (const LevelSharing &L : R.Levels) {
    auto It = std::find_if(Into.Levels.begin(), Into.Levels.end(),
                           [&](const LevelSharing &X) {
                             return X.Level == L.Level;
                           });
    if (It == Into.Levels.end()) {
      Into.Levels.push_back(L);
    } else {
      It->WithinDomain += L.WithinDomain;
      It->AcrossDomains += L.AcrossDomains;
    }
  }
}

void addExecution(RunResult &Result, const ExecutionResult &Exec) {
  Result.Cycles += Exec.TotalCycles;
  for (unsigned L = 1; L <= SimStats::MaxLevels; ++L) {
    Result.Stats.Levels[L].Lookups += Exec.Stats.Levels[L].Lookups;
    Result.Stats.Levels[L].Hits += Exec.Stats.Levels[L].Hits;
  }
  Result.Stats.MemoryAccesses += Exec.Stats.MemoryAccesses;
  Result.Stats.TotalAccesses += Exec.Stats.TotalAccesses;
  if (Result.PerCache.empty()) {
    Result.PerCache = Exec.PerCache;
    return;
  }
  for (std::size_t I = 0, E = Result.PerCache.size();
       I != E && I != Exec.PerCache.size(); ++I) {
    Result.PerCache[I].Lookups += Exec.PerCache[I].Lookups;
    Result.PerCache[I].Hits += Exec.PerCache[I].Hits;
    Result.PerCache[I].Evictions += Exec.PerCache[I].Evictions;
  }
}

/// One cold task the way the Service executes it (driver/Experiment.cpp's
/// runOnMachine, then the RunCache store), each step in its own span.
RunResult tracedRun(const RunTask &Task, std::uint64_t Key,
                    const RunCache &Cache, Tracer *T) {
  if (Task.RunsOn)
    die("cross-machine tasks are not part of any workload");
  RunResult Result;
  {
    obs::MetricSink RunSink;
    obs::MetricScope Scope(RunSink);
    MachineSim Sim(Task.Machine);
    for (unsigned NestIdx = 0, E = Task.Prog.Nests.size(); NestIdx != E;
         ++NestIdx) {
      double MapStart = perfbench::monotonicSeconds();
      std::uint64_t BlockSize = 0;
      Mapping Map = tracedPipeline(Task.Prog, NestIdx, Task.Machine,
                                   Task.Strat, Task.Opts, T, BlockSize);
      Result.MappingSeconds += perfbench::monotonicSeconds() - MapStart;
      Result.BlockSizeBytes = BlockSize;
      Result.Imbalance = Map.imbalance();
      Result.NumRounds = Map.NumRounds;
      {
        Span S(T, "core.report");
        addSharing(Result.Sharing, analyzeMapping(Map, Task.Machine));
      }

      std::shared_ptr<const AccessTrace> Trace;
      {
        Span S(T, "sim.trace_compile");
        std::uint64_t Before = rootCounter("trace-registry.compiles");
        Trace = TraceRegistry::getOrCompile(Task.Prog, NestIdx,
                                            Task.Opts.MaxIterations);
        S.count("compiles", rootCounter("trace-registry.compiles") - Before);
      }

      ExecutionResult Exec;
      if (isAdaptiveStrategy(Task.Strat)) {
        Span S(T, "runtime.adapt");
        runtime::remapDisabledCores(Map, Sim.topology());
        runtime::AdaptiveConfig Cfg;
        Cfg.Policy = Task.Strat == Strategy::AdaptiveMW
                         ? runtime::AdaptivePolicyKind::MultiplicativeWeights
                         : runtime::AdaptivePolicyKind::GreedyRebalance;
        Cfg.Interval = Task.Opts.AdaptInterval;
        std::uint64_t Before = currentCounter("runtime.adapt.remaps");
        Exec = runtime::executeAdaptive(Sim, *Trace, Map, Cfg);
        S.count("remaps", currentCounter("runtime.adapt.remaps") - Before);
        S.count("accesses", Exec.Stats.TotalAccesses);
      } else {
        Span S(T, "sim.execute");
        runtime::remapDisabledCores(Map, Sim.topology());
        Exec = executeTrace(Sim, *Trace, Map, SimExec());
        S.count("accesses", Exec.Stats.TotalAccesses);
      }
      addExecution(Result, Exec);
    }
    Result.Counters = RunSink.snapshot();
    Result.Phases = RunSink.phases();
  }
  Span S(T, "exec.cache_store");
  Cache.store(Key, Result);
  S.close();
  if (T && Cache.enabled()) {
    std::error_code EC;
    auto Bytes = std::filesystem::file_size(
        std::filesystem::path(Cache.directory()) / (toHexDigest(Key) + ".run"),
        EC);
    S.count("bytes", EC ? 0.0 : static_cast<double>(Bytes));
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// sweep
//===----------------------------------------------------------------------===//

const char *const SweepMachines[] = {"harpertown", "nehalem", "dunnington"};

GridSpec fig13Grid() {
  GridSpec Spec;
  Spec.Workloads = workloadNames();
  for (const char *Name : SweepMachines)
    Spec.Machines.push_back(makePresetByName(Name).scaledCapacity(1.0 / 32));
  Spec.Strategies = {Strategy::Base, Strategy::BasePlus,
                     Strategy::TopologyAware};
  Spec.OptionVariants = {ExperimentConfig::makeDefaultOptions()};
  return Spec;
}

int runSweep(const std::map<std::string, std::string> &Flags) {
  const std::string CacheDir = flag(Flags, "cache-dir");
  const std::string Out = flag(Flags, "out");
  const std::string SpansPath = flag(Flags, "trace", "");
  const std::size_t SetupEvery =
      std::stoul(flag(Flags, "setup-every", "0"));

  ExecConfig Config;
  Config.Jobs = 1;
  Config.SimThreads = 1;
  Config.CacheDir = CacheDir;
  Config.EmitJsonPath = flag(Flags, "emit-json", "");
  Config.BenchName = "perfbench-sweep";

  // Set-up: the grid's programs and machines, the expanded task list and
  // the runner. With --setup-every K it is repeated (and thrown away) after
  // every K runs, so its samples spread over the whole sweep.
  std::vector<double> SetupSeconds, BuildCpu;
  auto setUp = [&](GridSpec &SpecOut, std::vector<RunTask> &TasksOut) {
    const double W0 = perfbench::monotonicSeconds();
    const double C0 = perfbench::threadCpuSeconds();
    SpecOut = fig13Grid();
    TasksOut = expandGrid(SpecOut);
    BuildCpu.push_back(perfbench::threadCpuSeconds() - C0);
    auto R = std::make_unique<ExperimentRunner>(Config);
    SetupSeconds.push_back(perfbench::monotonicSeconds() - W0);
    return R;
  };
  GridSpec Spec;
  std::vector<RunTask> Tasks;
  std::unique_ptr<ExperimentRunner> Runner = setUp(Spec, Tasks);

  // The seed orders the runs within each machine block. Machines keep grid
  // order, so every order compiles each app's trace on Harpertown and
  // reaches the heavy Dunnington runs with every trace resident.
  std::vector<std::size_t> Order;
  std::mt19937_64 Rng(std::stoull(flag(Flags, "seed", "1")));
  const std::size_t Block = Tasks.size() / Spec.Machines.size();
  for (std::size_t M = 0; M != Spec.Machines.size(); ++M) {
    std::vector<std::size_t> Part(Block);
    for (std::size_t I = 0; I != Block; ++I)
      Part[I] = M * Block + I;
    std::shuffle(Part.begin(), Part.end(), Rng);
    Order.insert(Order.end(), Part.begin(), Part.end());
  }

  Tracer Trace;
  Tracer *T = SpansPath.empty() ? nullptr : &Trace;
  RunCache TracedCache(T ? CacheDir : std::string());
  std::vector<RunResult> Results(Tasks.size());
  std::vector<double> Latency(Tasks.size()), TaskCpu(Tasks.size());
  // Host speed, read after every run, outside the timed window (run.py
  // scales the pass's times by the median reading).
  perfbench::Probe HostProbe;
  std::vector<double> TaskProbe(Tasks.size());

  // Wall and CPU are summed over the runs themselves, leaving out the
  // interleaved set-ups.
  double Wall = 0, Cpu = 0;
  for (std::size_t N = 0; N != Order.size(); ++N) {
    const std::size_t I = Order[N];
    const double Cpu0 = processCpuSeconds();
    const double Start = perfbench::monotonicSeconds();
    if (T) {
      T->setTask(static_cast<int>(I));
      Span Root(T, "task");
      std::uint64_t Key;
      {
        Span S(T, "exec.fingerprint");
        Key = serve::Service::fingerprint(Tasks[I]);
      }
      {
        Span S(T, "exec.cache_lookup");
        if (TracedCache.lookup(Key))
          die("traced sweep found a cached result; the cache must be empty");
      }
      Results[I] = tracedRun(Tasks[I], Key, TracedCache, T);
    } else {
      Results[I] = Runner->runOne(Tasks[I]);
    }
    Latency[I] = perfbench::monotonicSeconds() - Start;
    TaskCpu[I] = processCpuSeconds() - Cpu0;
    Wall += Latency[I];
    Cpu += TaskCpu[I];
    if (SetupEvery)
      TaskProbe[I] = HostProbe.run();
    if (SetupEvery && (N + 1) % SetupEvery == 0) {
      GridSpec ThrowawaySpec;
      std::vector<RunTask> ThrowawayTasks;
      setUp(ThrowawaySpec, ThrowawayTasks);
    }
  }

  if (T && !Trace.write(SpansPath))
    die("cannot write " + SpansPath);
  Runner->emitArtifacts();

  std::FILE *F = openOut(Out);
  std::fprintf(F, "{\"traced\":%s,\"wall_s\":%.9f,\"cpu_s\":%.9f,",
               T ? "true" : "false", Wall, Cpu);
  std::fprintf(F, "\"peak_rss_kb\":%ld,\"setup_s\":[", statusKb("VmHWM:"));
  for (std::size_t I = 0; I != SetupSeconds.size(); ++I)
    std::fprintf(F, "%s%.9f", I ? "," : "", SetupSeconds[I]);
  std::fputs("],\"build_cpu_s\":[", F);
  for (std::size_t I = 0; I != BuildCpu.size(); ++I)
    std::fprintf(F, "%s%.9f", I ? "," : "", BuildCpu[I]);
  std::fputs("],\"tasks\":[", F);
  for (std::size_t M = 0; M != Spec.Machines.size(); ++M)
    for (std::size_t W = 0; W != Spec.Workloads.size(); ++W)
      for (std::size_t S = 0; S != Spec.Strategies.size(); ++S) {
        std::size_t I = Spec.index(M, W, 0, S);
        std::fprintf(F,
                     "%s\n{\"app\":\"%s\",\"machine\":\"%s\","
                     "\"strategy\":\"%s\",\"cycles\":%" PRIu64
                     ",\"accesses\":%" PRIu64
                     ",\"latency_s\":%.9f,\"cpu_s\":%.9f,\"probe_s\":%.9f}",
                     I ? "," : "", Spec.Workloads[W].c_str(), SweepMachines[M],
                     strategyName(Spec.Strategies[S]), Results[I].Cycles,
                     Results[I].Stats.TotalAccesses, Latency[I], TaskCpu[I],
                     TaskProbe[I]);
      }
  std::fputs("\n]}\n", F);
  std::fclose(F);
  return 0;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

struct ReplayOutcome {
  bool Ok = false;
  bool Warm = false;
  std::uint64_t Cycles = 0;
  std::size_t ResponseBytes = 0;
};

/// One request the way the daemon's reader thread handles it; cold keys
/// go through \p Svc untraced, or step by step into \p Cache when traced.
ReplayOutcome replayOne(const std::string &Payload, serve::Service &Svc,
                        const RunCache &Cache, Tracer *T) {
  ReplayOutcome Out;
  Span Root(T, "request");
  serve::RequestError Err;
  std::optional<serve::ServeRequest> Req;
  {
    Span S(T, "serve.request_parse");
    Req = serve::parseServeRequest(Payload, Err);
  }
  if (!Req)
    return Out;
  std::optional<RunTask> Task;
  {
    Span S(T, "frontend.parse");
    Task = serve::buildRunTask(*Req, Err);
  }
  if (!Task)
    return Out;
  std::uint64_t Key;
  {
    Span S(T, "exec.fingerprint");
    Key = serve::Service::fingerprint(*Task);
  }
  std::shared_ptr<const serve::TaskOutcome> Warm;
  {
    Span S(T, "serve.warm_lookup");
    Warm = Svc.lookupWarm(Key);
  }
  obs::RunArtifact A;
  if (Warm) {
    Out.Warm = true;
    Out.Cycles = Warm->Result.Cycles;
    A = Warm->Artifact;
  } else if (!T) {
    serve::TaskOutcome Cold = Svc.runOne(*Task);
    Out.Cycles = Cold.Result.Cycles;
    A = std::move(Cold.Artifact);
  } else {
    {
      Span S(T, "exec.cache_lookup");
      if (Cache.lookup(Key))
        return Out;
    }
    RunResult R = tracedRun(*Task, Key, Cache, T);
    Out.Cycles = R.Cycles;
    A = serve::makeRunArtifact(*Task, Key, "miss", R);
  }
  A.CacheStatus = Out.Warm ? "warm" : "miss";
  A.Label = Task->Label;
  Span S(T, "serve.render");
  std::string Response =
      serve::renderOkResponse(Req->Id, Out.Warm ? "warm" : "miss", 0.0, 0.0, A);
  Out.ResponseBytes = Response.size();
  S.count("bytes", Response.size());
  Out.Ok = true;
  return Out;
}

std::unique_ptr<serve::Service>
primedService(const std::vector<std::string> &Prime, const std::string &Dir) {
  serve::Service::Config SC;
  SC.Jobs = 1;
  SC.CacheDir = Dir;
  SC.SkipOnShutdown = false;
  auto Svc = std::make_unique<serve::Service>(SC);
  for (const std::string &Payload : Prime) {
    serve::RequestError Err;
    std::optional<serve::ServeRequest> Req =
        serve::parseServeRequest(Payload, Err);
    std::optional<RunTask> Task =
        Req ? serve::buildRunTask(*Req, Err) : std::nullopt;
    if (!Task)
      die("priming payload rejected: " + Err.Message);
    Svc->runOne(*Task);
  }
  return Svc;
}

int runReplay(const std::map<std::string, std::string> &Flags) {
  const std::vector<std::string> Prime = readLines(flag(Flags, "prime"));
  const std::vector<std::string> Requests = readLines(flag(Flags, "requests"));
  const std::string Dir = flag(Flags, "cache-dir");
  const std::string Out = flag(Flags, "out");
  const std::string SpansPath = flag(Flags, "spans", "");
  const int Repeat = std::max(1, std::atoi(flag(Flags, "repeat", "1").c_str()));

  // Two services primed alike: the untraced pass indexes the cold keys it
  // runs, which must still be cold for the traced pass.
  std::unique_ptr<serve::Service> Untraced = primedService(Prime, Dir + "/a");
  std::unique_ptr<serve::Service> Traced = primedService(Prime, Dir + "/b");
  RunCache TracedCache(Dir + "/c");
  TraceRegistry::clear();

  struct Pass {
    double Wall = 0, Cpu = 0;
    std::vector<ReplayOutcome> Outcomes;
  } Passes[2];
  Tracer Trace;
  for (int P = 0; P != 2; ++P) {
    Tracer *T = P ? &Trace : nullptr;
    serve::Service &Svc = P ? *Traced : *Untraced;
    if (P)
      TraceRegistry::clear();
    const double C0 = processCpuSeconds();
    const double W0 = perfbench::monotonicSeconds();
    int Id = 0;
    for (int R = 0; R != Repeat; ++R)
      for (const std::string &Payload : Requests) {
        if (T)
          T->setTask(Id);
        ++Id;
        Passes[P].Outcomes.push_back(replayOne(Payload, Svc, TracedCache, T));
      }
    Passes[P].Wall = perfbench::monotonicSeconds() - W0;
    Passes[P].Cpu = processCpuSeconds() - C0;
  }
  if (!SpansPath.empty() && !Trace.write(SpansPath))
    die("cannot write " + SpansPath);

  std::FILE *F = openOut(Out);
  std::fprintf(F,
               "{\"untraced_wall_s\":%.9f,\"untraced_cpu_s\":%.9f,"
               "\"traced_wall_s\":%.9f,\"traced_cpu_s\":%.9f,\"requests\":[",
               Passes[0].Wall, Passes[0].Cpu, Passes[1].Wall, Passes[1].Cpu);
  for (std::size_t I = 0; I != Passes[0].Outcomes.size(); ++I) {
    const ReplayOutcome &U = Passes[0].Outcomes[I];
    const ReplayOutcome &V = Passes[1].Outcomes[I];
    std::fprintf(F,
                 "%s\n{\"ok\":%s,\"warm\":%s,\"cycles\":%" PRIu64
                 ",\"traced_ok\":%s,\"traced_warm\":%s,\"traced_cycles\":%" PRIu64
                 ",\"bytes\":%zu}",
                 I ? "," : "", U.Ok ? "true" : "false",
                 U.Warm ? "true" : "false", U.Cycles,
                 V.Ok ? "true" : "false", V.Warm ? "true" : "false", V.Cycles,
                 V.ResponseBytes);
  }
  std::fputs("\n]}\n", F);
  std::fclose(F);
  return 0;
}

int printDegradedTopo() {
  std::string Text = printTopology(makeDunnington());
  std::size_t L1 = Text.find("l1:");
  if (L1 == std::string::npos)
    die("Dunnington preset has no L1 caches");
  Text.insert(Text.find('\n', L1), ":speed=50");
  std::fputs(Text.c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench sweep|replay|degraded-topo [--flag value]...");
  const std::string Cmd = Argv[1];
  if (Cmd == "degraded-topo")
    return printDegradedTopo();
  std::map<std::string, std::string> Flags = parseFlags(Argc, Argv);
  if (Cmd == "sweep")
    return runSweep(Flags);
  if (Cmd == "replay")
    return runReplay(Flags);
  die("unknown subcommand '" + Cmd + "'");
}
