//===- tools/cta/cta.cpp - Workload DSL command-line driver ---------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cta` binary: maps and simulates textual workloads without
/// recompiling the repo. Three subcommands:
///
///   cta run <workload> --machine <preset|file.topo> [options]
///       Parse a .cta file (or name a compiled-in Table 2 workload),
///       run it through the mapping pipeline + simulator, and report
///       cycles, cache behaviour and the mapping summary. --emit-json
///       writes the cta-bench-artifact-v1 document; --emit-code prints
///       the generated C-like nest code.
///
///   cta trace <workload> --machine <preset|file.topo> [options]
///       Like `cta run`, but with event tracing attached: prints the
///       textual trace report (per-core Gantt, reuse-distance summaries
///       per cache level, sharing-flow matrices, top miss blocks) for
///       each machine. --emit-trace additionally writes the Perfetto-
///       loadable Chrome trace-event JSON.
///
///   cta check [--topo] <file>...
///       Parse-and-validate only. Diagnostics go to stderr in the
///       file:line:col caret format; exit status 1 when any file fails.
///       With --topo the files are machine descriptions (topo/Parse)
///       instead of workloads.
///
///   cta serve --socket <path> [options]
///       Long-running mapping daemon on a Unix-domain socket: length-
///       prefixed JSON requests, warm answers from the in-memory result
///       index, admission control for cold simulator work.
///       SIGINT/SIGTERM drains inflight requests and exits cleanly.
///
///   cta client --socket <path> [options]
///       Load-testing client for a running daemon: N concurrent
///       connections, a warm:cold request mix, latency percentiles, and
///       a cta-serve-bench-v1 report for scripts/compare_bench.py.
///
///   cta top --socket <path> [options]
///       Live dashboard for a running daemon: polls cta-serve-stats-v1
///       frames and renders tier throughput/latency percentiles, cache
///       hit ratio and adaptive remap activity.
///
///   cta list
///       The compiled-in workload suite, machine presets and strategies.
///
//===----------------------------------------------------------------------===//

#include "driver/Experiment.h"
#include "exec/ExperimentRunner.h"
#include "frontend/Parser.h"
#include "frontend/Printer.h"
#include "obs/RunArtifact.h"
#include "poly/CodeGen.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Shutdown.h"
#include "serve/Top.h"
#include "sim/TraceExport.h"
#include "sim/TraceLog.h"
#include "sim/TraceReport.h"
#include "support/CommandLine.h"
#include "support/Diag.h"
#include "support/Hashing.h"
#include "support/ParseNumber.h"
#include "topo/Parse.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace cta;

namespace {

const char *UsageText =
    "usage:\n"
    "  cta run <file.cta|workload> --machine <preset|file.topo> [options]\n"
    "  cta trace <file.cta|workload> --machine <preset|file.topo> [options]\n"
    "  cta check [--topo] <file>...\n"
    "  cta serve --socket <path> [--jobs N] [--sim-threads N] [--cache-dir P]\n"
    "            [--max-inflight N] [--metrics-port N] [--log-json P]\n"
    "  cta client --socket <path> [--workload W] [--machine M]\n"
    "             [--strategy S] [--scale F] [--concurrency N]\n"
    "             [--requests N] [--mix WARM:COLD] [--emit-json P]\n"
    "             [--dump-response P] [--client NAME]\n"
    "  cta top --socket <path> [--interval-ms N] [--count N] [--once]\n"
    "  cta list\n"
    "Every value flag takes `--name V` or `--name=V`.\n"
    "\n"
    "run/trace options:\n"
    "  --machine M      machine preset (see `cta list`) or .topo file;\n"
    "                   repeatable — the workload runs on each machine\n"
    "  --runs-on M      execute the mapping on a different machine than it\n"
    "                   was compiled for (cross-machine porting)\n"
    "  --strategy S     base | base+ | local | topology-aware | combined |\n"
    "                   adaptive-greedy | adaptive-mw\n"
    "                   (default topology-aware)\n"
    "  --adapt-policy P greedy | mw: shorthand for the matching adaptive\n"
    "                   strategy (conflicts with a different --strategy)\n"
    "  --adapt-interval N   groups each core retires between adaptive remap\n"
    "                   commit points (default 4; adaptive strategies only)\n"
    "  --scale F        cache-capacity scale factor (default 0.03125, the\n"
    "                   1/32 regime every bench uses; 1 = full size)\n"
    "  --alpha X        horizontal-reuse weight (combined strategy)\n"
    "  --beta X         vertical-reuse weight (combined strategy)\n"
    "  --block-size N   data block size in bytes (0 = auto-select)\n"
    "  --emit-code      print the generated C-like loop nests\n"
    "  --emit-json P    write the cta-bench-artifact-v1 JSON to P\n"
    "  --emit-trace P   write the Perfetto-loadable cta-trace-v1 Chrome\n"
    "                   trace-event JSON to P (needs exactly one --machine;\n"
    "                   on `cta run` this turns event tracing on)\n"
    "  --sim-threads N  threads sharing the engine's per-core phase 1:\n"
    "                   1 = the calling thread (default), 0 = hardware\n"
    "                   threads, N > 1 = at most N; results are\n"
    "                   bit-identical for every value\n"
    "  --jobs N, --cache-dir P, --no-timing   (exec/ flags, as in benches)\n";

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

const std::vector<std::string> &presetNames() {
  static const std::vector<std::string> Names = {
      "harpertown", "nehalem", "dunnington", "arch-i", "arch-ii"};
  return Names;
}

bool isPresetName(const std::string &Name) {
  const auto &Names = presetNames();
  return std::find(Names.begin(), Names.end(), Name) != Names.end();
}

/// Resolves --machine/--runs-on: preset names first, file paths second.
CacheTopology resolveMachine(const std::string &Spec, double Scale) {
  if (isPresetName(Spec))
    return makePresetByName(Spec).scaledCapacity(Scale);
  std::string Text;
  if (!readFile(Spec, Text))
    reportUsageError("'" + Spec +
                     "' is neither a machine preset nor a readable .topo file");
  std::string Err;
  std::optional<CacheTopology> Topo = parseTopology(Spec, Text, &Err);
  if (!Topo) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    std::exit(1);
  }
  return Topo->scaledCapacity(Scale);
}

std::optional<Strategy> parseStrategy(std::string Name) {
  std::transform(Name.begin(), Name.end(), Name.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  if (Name == "base" || Name == "os-default")
    return Strategy::Base;
  if (Name == "base+" || Name == "baseplus")
    return Strategy::BasePlus;
  if (Name == "local")
    return Strategy::Local;
  if (Name == "topology-aware" || Name == "topologyaware" || Name == "cta")
    return Strategy::TopologyAware;
  if (Name == "combined")
    return Strategy::Combined;
  if (Name == "adaptive-greedy" || Name == "adaptivegreedy")
    return Strategy::AdaptiveGreedy;
  if (Name == "adaptive-mw" || Name == "adaptivemw")
    return Strategy::AdaptiveMW;
  return std::nullopt;
}

bool isBuiltinWorkload(const std::string &Name) {
  for (const std::string &W : workloadNames())
    if (W == Name)
      return true;
  return false;
}

/// A parsed workload plus the provenance the cache key needs.
struct WorkloadInput {
  Program Prog;
  std::uint64_t SourceHash = 0; // 0 for compiled-in workloads
  std::string Origin;           // file path or "builtin"
};

/// Loads \p Spec as a .cta file, or as a compiled-in workload name when no
/// such file exists. Exits with a diagnostic on parse/validation errors.
WorkloadInput loadWorkload(const std::string &Spec) {
  std::string Source;
  if (readFile(Spec, Source)) {
    frontend::ParseOutcome Outcome = frontend::parseProgramText(Source, Spec);
    if (!Outcome.ok()) {
      std::fprintf(stderr, "%s\n", Outcome.Diagnostic.c_str());
      std::exit(1);
    }
    HashBuilder H;
    H.add(Source);
    return {std::move(*Outcome.Prog), H.hash(), Spec};
  }
  if (isBuiltinWorkload(Spec))
    return {makeWorkload(Spec), 0, "builtin"};
  reportUsageError("'" + Spec +
                   "' is neither a readable .cta file nor a compiled-in "
                   "workload (see `cta list`)");
}

//===----------------------------------------------------------------------===//
// cta list
//===----------------------------------------------------------------------===//

int runList() {
  std::printf("workloads (Table 2; usable as `cta run <name>`):\n");
  for (const WorkloadMeta &W : workloadSuite())
    std::printf("  %-10s %-9s %s\n", W.Name, W.Origin,
                W.HasDependences ? "loop-carried dependences" : "parallel");
  std::printf("\nmachine presets (usable as `--machine <name>`):\n");
  for (const std::string &Name : presetNames()) {
    CacheTopology Topo = makePresetByName(Name);
    std::printf("  %-11s %2u cores, %u cache levels, %.1f MB on-chip\n",
                Name.c_str(), Topo.numCores(), Topo.deepestLevel(),
                static_cast<double>(Topo.totalCacheBytes()) /
                    (1024.0 * 1024.0));
  }
  std::printf("\nstrategies (usable as `--strategy <name>`):\n");
  for (Strategy S : {Strategy::Base, Strategy::BasePlus, Strategy::Local,
                     Strategy::TopologyAware, Strategy::Combined,
                     Strategy::AdaptiveGreedy, Strategy::AdaptiveMW})
    std::printf("  %-14s %s\n", strategyName(S), strategyDescription(S));
  std::printf(
      "\nsimulator engine (one for every run):\n"
      "  phase 1 sweeps each core's iterations through its private caches;\n"
      "  phase 2 replays what they could not resolve through the shared\n"
      "  levels on one (cycle, core) heap, honouring barriers,\n"
      "  point-to-point waits and per-core speed=. Traced and\n"
      "  point-to-point runs replay every iteration; adaptive strategies\n"
      "  run one epoch per remap round. `--sim-threads N` spreads phase 1\n"
      "  over N threads (adaptive runs stay on one); cycles and\n"
      "  statistics are identical for every N and every --jobs count.\n");
  return 0;
}

//===----------------------------------------------------------------------===//
// cta check
//===----------------------------------------------------------------------===//

int runCheck(const std::vector<std::string> &Args) {
  bool TopoMode = false;
  std::vector<std::string> Files;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    if (matchFlag(Args, I, "--topo"))
      TopoMode = true;
    else if (Args[I].starts_with("--"))
      reportUsageError("unknown `cta check` flag '" + Args[I] + "'");
    else
      Files.push_back(Args[I]);
  }
  if (Files.empty())
    reportUsageError("`cta check` needs at least one file");

  int Failures = 0;
  for (const std::string &File : Files) {
    std::string Text;
    if (!readFile(File, Text)) {
      std::fprintf(stderr, "%s:1:1: error: cannot read file\n", File.c_str());
      ++Failures;
      continue;
    }
    if (TopoMode) {
      std::string Err;
      if (!parseTopology(File, Text, &Err)) {
        std::fprintf(stderr, "%s\n", Err.c_str());
        ++Failures;
        continue;
      }
    } else {
      frontend::ParseOutcome Outcome = frontend::parseProgramText(Text, File);
      if (!Outcome.ok()) {
        std::fprintf(stderr, "%s\n", Outcome.Diagnostic.c_str());
        ++Failures;
        continue;
      }
    }
    std::printf("%s: OK\n", File.c_str());
  }
  return Failures == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// cta run
//===----------------------------------------------------------------------===//

/// Rejects a bad flag value with a caret diagnostic that points into the
/// command line itself: the full argv (joined with single spaces) is the
/// "source", and the caret underlines \p Value where it follows \p Flag
/// (either `--flag=value` or `--flag value`). Used for unwritable
/// --emit-trace / --log-json paths and unbindable --metrics-port values —
/// failures the flag parser cannot see because they only surface when the
/// file or socket is actually opened.
[[noreturn]] void flagValueError(int argc, char **argv, const char *Flag,
                                 const std::string &Value,
                                 const std::string &Message) {
  std::string Source;
  std::size_t Offset = std::string::npos;
  const std::string Eq = std::string(Flag) + "=";
  for (int I = 0; I < argc; ++I) {
    if (I)
      Source += ' ';
    const char *Arg = argv[I];
    std::size_t TokenStart = Source.size();
    Source += Arg;
    if (Offset != std::string::npos)
      continue;
    if (std::strncmp(Arg, Eq.c_str(), Eq.size()) == 0 &&
        Value == Arg + Eq.size())
      Offset = TokenStart + Eq.size();
    else if (I > 0 && std::strcmp(argv[I - 1], Flag) == 0 && Value == Arg)
      Offset = TokenStart;
  }
  if (Offset == std::string::npos)
    Offset = 0; // value came from nowhere findable; point at the start
  unsigned CaretLen = Value.empty() ? 1 : static_cast<unsigned>(Value.size());
  std::fprintf(stderr, "%s\n",
               renderDiag("<command-line>", locForOffset(Source, Offset),
                          Message, Source, CaretLen)
                   .c_str());
  std::exit(1);
}

[[noreturn]] void emitTracePathError(int argc, char **argv,
                                     const std::string &Path,
                                     const std::string &Reason) {
  flagValueError(argc, argv, "--emit-trace", Path,
                 "cannot write trace file '" + Path + "': " + Reason);
}

int runRun(int argc, char **argv, const std::vector<std::string> &Args,
           bool TraceMode) {
  std::string WorkloadSpec;
  std::vector<std::string> MachineSpecs;
  std::string RunsOnSpec;
  Strategy Strat = Strategy::TopologyAware;
  bool StratExplicit = false;
  double Scale = 1.0 / 32;
  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();
  bool EmitCode = false;
  std::string EmitTracePath;
  const char *Cmd = TraceMode ? "cta trace" : "cta run";

  ExecConfig Config = execConfigFromEnv();
  Config.BenchName = "cta";
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    std::string Value;
    if (const ExecFlag *F = matchExecFlag(Args, I, Value)) {
      F->Set(Config, F->Name, Value);
    } else if (matchFlag(Args, I, "--machine", &Value)) {
      MachineSpecs.push_back(Value);
    } else if (matchFlag(Args, I, "--runs-on", &Value)) {
      RunsOnSpec = Value;
    } else if (matchFlag(Args, I, "--strategy", &Value)) {
      std::optional<Strategy> S = parseStrategy(Value);
      if (!S)
        reportUsageError("unknown strategy '" + Value + "'");
      Strat = *S;
      StratExplicit = true;
    } else if (matchFlag(Args, I, "--scale", &Value)) {
      Scale = parseFiniteDoubleOrDie("--scale", Value);
      if (!(Scale > 0.0))
        reportUsageError("--scale must be positive");
    } else if (matchFlag(Args, I, "--alpha", &Value)) {
      Opts.Alpha = parseFiniteDoubleOrDie("--alpha", Value);
    } else if (matchFlag(Args, I, "--beta", &Value)) {
      Opts.Beta = parseFiniteDoubleOrDie("--beta", Value);
    } else if (matchFlag(Args, I, "--block-size", &Value)) {
      Opts.BlockSizeBytes = parseUint64OrDie("--block-size", Value);
    } else if (matchFlag(Args, I, "--emit-code")) {
      EmitCode = true;
    } else if (matchFlag(Args, I, "--emit-trace", &Value)) {
      EmitTracePath = Value;
    } else if (Arg.starts_with("--")) {
      reportUsageError("unknown `" + std::string(Cmd) + "` flag '" + Arg +
                       "'");
    } else if (WorkloadSpec.empty()) {
      WorkloadSpec = Arg;
    } else {
      reportUsageError("unexpected argument '" + Arg + "'");
    }
  }
  if (WorkloadSpec.empty())
    reportUsageError("`" + std::string(Cmd) +
                     "` needs a workload (.cta file or suite name)");
  if (MachineSpecs.empty())
    reportUsageError("`" + std::string(Cmd) + "` needs --machine");
  if (!EmitTracePath.empty()) {
    if (MachineSpecs.size() != 1)
      reportUsageError("--emit-trace needs exactly one --machine");
    // Probe writability now, before potentially minutes of simulation.
    // Append mode leaves an existing file's contents alone if the run is
    // later interrupted.
    std::ofstream Probe(EmitTracePath, std::ios::app);
    if (!Probe)
      emitTracePathError(argc, argv, EmitTracePath, std::strerror(errno));
  }

  WorkloadInput Input = loadWorkload(WorkloadSpec);
  if (Config.AdaptInterval != 0)
    Opts.AdaptInterval = Config.AdaptInterval;
  if (!Config.AdaptPolicy.empty()) {
    Strategy Wanted = Config.AdaptPolicy == "mw" ? Strategy::AdaptiveMW
                                                 : Strategy::AdaptiveGreedy;
    if (StratExplicit && Strat != Wanted)
      reportUsageError("--adapt-policy " + Config.AdaptPolicy +
                       " conflicts with --strategy " + strategyName(Strat));
    Strat = Wanted;
  }

  // Same signal path as the daemon: SIGINT/SIGTERM let in-flight
  // simulations finish (the RunCache never sees a partial entry), skip
  // everything not yet started, and exit 130 without artifacts.
  serve::installShutdownSignalHandlers();

  std::optional<CacheTopology> RunsOn;
  if (!RunsOnSpec.empty())
    RunsOn = resolveMachine(RunsOnSpec, Scale);

  const bool Traced = TraceMode || !EmitTracePath.empty();
  std::vector<RunTask> Tasks;
  std::vector<std::shared_ptr<TraceLog>> Logs;
  for (const std::string &Spec : MachineSpecs) {
    RunTask Task = makeRunTask(Input.Prog, resolveMachine(Spec, Scale), Strat,
                               Opts,
                               Input.Prog.Name + "/" + Spec + "/" +
                                   strategyName(Strat));
    Task.RunsOn = RunsOn;
    Task.SourceHash = Input.SourceHash;
    if (Traced) {
      Task.TraceSink = std::make_shared<TraceLog>();
      Logs.push_back(Task.TraceSink);
    }
    Tasks.push_back(std::move(Task));
  }

  ExperimentRunner Runner(Config);
  std::vector<RunResult> Results = Runner.run(Tasks);
  if (Runner.interrupted()) {
    std::fprintf(stderr,
                 "%s: interrupted; completed runs are cached, no artifacts "
                 "written\n",
                 Cmd);
    return 130;
  }

  std::printf("workload %s (%s): %zu arrays, %zu nests\n",
              Input.Prog.Name.c_str(), Input.Origin.c_str(),
              Input.Prog.Arrays.size(), Input.Prog.Nests.size());
  for (std::size_t I = 0; I != Results.size(); ++I) {
    const RunResult &R = Results[I];
    const CacheTopology &Machine = Tasks[I].Machine;
    std::printf("\n%s on %s (%u cores, scale %g), strategy %s",
                Input.Prog.Name.c_str(), MachineSpecs[I].c_str(),
                Machine.numCores(), Scale, strategyName(Strat));
    if (RunsOn)
      std::printf(", executed on %s", RunsOnSpec.c_str());
    std::printf(":\n");
    std::printf("  cycles      %" PRIu64 "\n", R.Cycles);
    std::printf("  block size  %" PRIu64 " B\n", R.BlockSizeBytes);
    std::printf("  rounds      %u\n", R.NumRounds);
    std::printf("  imbalance   %.2f%%\n", R.Imbalance * 100.0);
    std::printf("  caches      %s\n", R.Stats.str().c_str());
    if (!Config.NoTiming)
      std::printf("  mapping     %.3fs\n", R.MappingSeconds);
    if (TraceMode) {
      std::printf("  static      %s\n", R.Sharing.compactStr().c_str());
      std::printf("\n%s", renderTraceReport(*Logs[I], &Input.Prog).c_str());
    }
  }

  if (!EmitTracePath.empty()) {
    TraceExportMeta Meta;
    Meta.Workload = Input.Prog.Name;
    // The log observes the machine that actually executed (--runs-on).
    Meta.Machine = RunsOn ? RunsOnSpec : MachineSpecs[0];
    Meta.Strategy = strategyName(Strat);
    std::string Json = renderChromeTrace(*Logs[0], Results[0].Phases, Meta);
    std::ofstream Out(EmitTracePath, std::ios::trunc | std::ios::binary);
    if (!Out)
      emitTracePathError(argc, argv, EmitTracePath, std::strerror(errno));
    Out << Json;
    Out.flush();
    if (!Out)
      emitTracePathError(argc, argv, EmitTracePath, "write failed");
    std::fprintf(stderr,
                 "wrote %s (%" PRIu64 " events, %" PRIu64 " dropped)\n",
                 EmitTracePath.c_str(), Logs[0]->totalEvents(),
                 Logs[0]->droppedEvents());
  }

  if (EmitCode) {
    std::printf("\ngenerated code:\n");
    for (const LoopNest &Nest : Input.Prog.Nests) {
      std::printf("// nest \"%s\"\n%s", Nest.name().c_str(),
                  CodeGen(Nest, Input.Prog.Arrays).emitFullNest().c_str());
    }
  }

  std::fprintf(stderr, "%s\n",
               obs::formatExecSummary(Runner.execSummary()).c_str());
  Runner.emitArtifacts();
  return 0;
}

//===----------------------------------------------------------------------===//
// cta serve / cta client
//===----------------------------------------------------------------------===//

int runServe(int argc, char **argv, const std::vector<std::string> &Args) {
  serve::ServerOptions Opts = serve::parseServeArgs(Args);
  serve::installShutdownSignalHandlers();
  serve::Server Daemon(std::move(Opts));
  std::string Err;
  if (!Daemon.listen(&Err)) {
    // Telemetry-flag failures point back into the command line: the flag
    // parser accepted the value, but opening the file/port did not.
    const serve::ServerOptions &O = Daemon.options();
    if (!O.LogJsonPath.empty() &&
        Err.find("event log") != std::string::npos)
      flagValueError(argc, argv, "--log-json", O.LogJsonPath, Err);
    if (O.MetricsEnabled && Err.find("metrics") != std::string::npos)
      flagValueError(argc, argv, "--metrics-port",
                     std::to_string(O.MetricsPort), Err);
    std::fprintf(stderr, "cta serve: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "cta serve: listening on %s (jobs=%u)\n",
               Daemon.options().SocketPath.c_str(), Daemon.service().jobs());
  // Scripts parse this line to find a kernel-assigned (--metrics-port=0)
  // port, so keep its shape stable.
  if (unsigned Port = Daemon.metricsPort())
    std::fprintf(stderr, "cta serve: metrics on http://127.0.0.1:%u/metrics\n",
                 Port);
  Daemon.run();
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr, "%s", UsageText);
    return 1;
  }
  std::string Cmd = argv[1];
  if (Cmd == "help" || Cmd == "--help" || Cmd == "-h") {
    std::printf("%s", UsageText);
    return 0;
  }
  setUsageText(UsageText);
  const std::vector<std::string> Args(argv + 2, argv + argc);

  if (Cmd == "list")
    return runList();
  if (Cmd == "check")
    return runCheck(Args);
  if (Cmd == "run")
    return runRun(argc, argv, Args, /*TraceMode=*/false);
  if (Cmd == "trace")
    return runRun(argc, argv, Args, /*TraceMode=*/true);
  if (Cmd == "serve")
    return runServe(argc, argv, Args);
  if (Cmd == "client")
    return serve::runClient(serve::parseClientArgs(Args));
  if (Cmd == "top")
    return serve::runTop(serve::parseTopArgs(Args));
  reportUsageError("unknown subcommand '" + Cmd + "'");
}
