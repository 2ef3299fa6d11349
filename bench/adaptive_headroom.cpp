//===- bench/adaptive_headroom.cpp - Static vs adaptive head-to-head ------===//
//
// The runtime/ subsystem's headline experiment: the same workloads mapped
// by the static topology-aware pipeline and by the two adaptive strategies
// (greedy rebalance, multiplicative weights), on a uniform Dunnington and
// on a degraded one whose core 0 runs at half speed. The static mapping
// serializes on the slow core; the adaptive executors observe its
// per-iteration cost after the first remap interval and shed its pending
// groups, so the degraded scenario is where the headroom lives. On the
// uniform machine the adaptive strategies must track the static mapping
// within noise — that is the "do no harm" half of the contract.
//
// Besides the standard --emit-json artifact, --emit-adaptive-json=PATH
// (env CTA_EMIT_ADAPTIVE_JSON) writes a cta-adaptive-bench-v1 document:
// per (scenario, workload, strategy) the simulated cycles and the
// runtime.adapt.* counters. scripts/check_artifact_schema.py validates it
// and scripts/compare_bench.py gates CI on it — exact cycle equality
// against the committed BENCH_adaptive.json (simulated cycles are
// machine-independent), plus the >= 10% adaptive win on the degraded
// scenario.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "obs/Json.h"
#include "support/CommandLine.h"

#include <cstdlib>
#include <fstream>

using namespace cta;
using namespace cta::bench;

namespace {

struct Scenario {
  const char *Name;
  const char *MachineDesc;
  CacheTopology Machine;
};

std::uint64_t counter(const RunResult &R, const char *Name) {
  auto It = R.Counters.find(Name);
  return It == R.Counters.end() ? 0 : It->second;
}

void emitAdaptiveJson(const std::string &Path,
                      const std::vector<Scenario> &Scenarios,
                      const std::vector<std::string> &Workloads,
                      const std::vector<Strategy> &Strategies,
                      const std::vector<RunResult> &Results,
                      unsigned AdaptInterval) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value("cta-adaptive-bench-v1");
  W.key("benchmark");
  W.value("adaptive_headroom");
  W.key("adapt_interval");
  W.value(AdaptInterval);
  W.key("workloads");
  W.beginArray();
  for (const std::string &Name : Workloads)
    W.value(Name);
  W.endArray();
  W.key("scenarios");
  W.beginArray();
  std::size_t Idx = 0;
  for (const Scenario &S : Scenarios) {
    W.beginObject();
    W.key("name");
    W.value(S.Name);
    W.key("machine");
    W.value(S.MachineDesc);
    W.key("entries");
    W.beginArray();
    for (const std::string &Workload : Workloads) {
      for (Strategy Strat : Strategies) {
        const RunResult &R = Results[Idx++];
        W.beginObject();
        W.key("workload");
        W.value(Workload);
        W.key("strategy");
        W.value(strategyName(Strat));
        W.key("cycles");
        W.value(R.Cycles);
        W.key("adapt");
        W.beginObject();
        W.key("rounds");
        W.value(counter(R, "runtime.adapt.rounds"));
        W.key("remaps");
        W.value(counter(R, "runtime.adapt.remaps"));
        W.key("migrations");
        W.value(counter(R, "runtime.adapt.migrations"));
        W.key("weight_updates");
        W.value(counter(R, "runtime.adapt.weight_updates"));
        W.key("fallbacks");
        W.value(counter(R, "runtime.adapt.fallbacks"));
        W.endObject();
        W.endObject();
      }
    }
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();

  std::ofstream Out(Path, std::ios::trunc);
  if (!Out.good()) {
    std::fprintf(stderr, "adaptive_headroom: cannot write %s\n",
                 Path.c_str());
    std::exit(1);
  }
  Out << W.str() << "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::string AdaptiveJsonPath;
  if (const char *Env = std::getenv("CTA_EMIT_ADAPTIVE_JSON"))
    AdaptiveJsonPath = Env;
  const std::vector<std::string> Args(argv, argv + argc);
  for (std::size_t I = 1; I < Args.size(); ++I)
    matchFlag(Args, I, "--emit-adaptive-json", &AdaptiveJsonPath);

  ExperimentRunner Runner(parseExecArgs(argc, argv));
  printHeader("Adaptive headroom",
              "static vs adaptive strategies, uniform and degraded "
              "Dunnington (core 0 at 50% speed)");

  CacheTopology Degraded = simMachine("dunnington");
  Degraded.setCoreSpeed(0, 50);
  std::vector<Scenario> Scenarios = {
      {"uniform", "dunnington @ 1/32", simMachine("dunnington")},
      {"degraded", "dunnington @ 1/32, core0 speed=50", Degraded},
  };
  const std::vector<std::string> Workloads = {"cg", "sp"};
  const std::vector<Strategy> Strategies = {
      Strategy::BasePlus, Strategy::TopologyAware, Strategy::AdaptiveGreedy,
      Strategy::AdaptiveMW};

  MappingOptions Opts = defaultOpts();
  if (Runner.config().AdaptInterval != 0)
    Opts.AdaptInterval = Runner.config().AdaptInterval;

  std::vector<RunTask> Tasks;
  for (const Scenario &S : Scenarios)
    for (const std::string &Workload : Workloads)
      for (Strategy Strat : Strategies)
        Tasks.push_back(makeRunTask(
            makeWorkload(Workload), S.Machine, Strat, Opts,
            std::string(S.Name) + "/" + Workload + "/" +
                strategyName(Strat)));
  std::vector<RunResult> Results = Runner.run(Tasks);

  // One table per scenario: cycles per strategy, normalized to the static
  // topology-aware mapping, plus the migration/fallback telemetry.
  std::size_t Idx = 0;
  for (const Scenario &S : Scenarios) {
    std::printf("\n-- scenario: %s (%s) --\n", S.Name, S.MachineDesc);
    TextTable Table({"workload", "strategy", "cycles", "vs topo-aware",
                     "rounds", "migrations", "fallbacks"});
    for (const std::string &Workload : Workloads) {
      const RunResult *Static = nullptr;
      for (std::size_t K = 0; K != Strategies.size(); ++K)
        if (Strategies[K] == Strategy::TopologyAware)
          Static = &Results[Idx + K];
      for (std::size_t K = 0; K != Strategies.size(); ++K) {
        const RunResult &R = Results[Idx + K];
        Table.addRow(
            {Workload, strategyName(Strategies[K]),
             std::to_string(R.Cycles),
             formatDouble(ratioToBase(R, *Static), 3),
             std::to_string(counter(R, "runtime.adapt.rounds")),
             std::to_string(counter(R, "runtime.adapt.migrations")),
             std::to_string(counter(R, "runtime.adapt.fallbacks"))});
      }
      Idx += Strategies.size();
    }
    Table.print();
  }
  std::printf("\nContract: on the degraded scenario both adaptive "
              "strategies beat TopologyAware by >= 10%%; on the uniform "
              "scenario they stay within noise of it.\n");

  if (!AdaptiveJsonPath.empty())
    emitAdaptiveJson(AdaptiveJsonPath, Scenarios, Workloads, Strategies,
                     Results, Opts.AdaptInterval);
  finishBench(Runner);
  return 0;
}
