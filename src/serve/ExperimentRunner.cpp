//===- serve/ExperimentRunner.cpp - Bench-facing shim over the Service ----===//
//
// Lives in serve/ (not exec/) because the runner is now a collection layer
// over serve::Service; the public header stays at exec/ExperimentRunner.h
// so bench binaries and tests keep their includes.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"

#include "support/ErrorHandling.h"
#include "support/ParseNumber.h"

#include <climits>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace cta;

/// Validates an --adapt-policy value; the two names mirror the
/// adaptive-greedy / adaptive-mw strategies.
static std::string parseAdaptPolicy(const char *What, const char *Value) {
  std::string V = Value;
  if (V != "greedy" && V != "mw")
    reportFatalError((std::string(What) + ": unknown adaptive policy '" + V +
                      "' (expected 'greedy' or 'mw')")
                         .c_str());
  return V;
}

ExecConfig cta::parseExecArgs(int argc, char **argv) {
  ExecConfig Config;
  if (const char *Env = std::getenv("CTA_JOBS"))
    Config.Jobs = static_cast<unsigned>(
        parseUint64OrDie("CTA_JOBS", Env, /*Max=*/UINT_MAX));
  if (const char *Env = std::getenv("CTA_SIM_THREADS"))
    Config.SimThreads = static_cast<unsigned>(
        parseUint64OrDie("CTA_SIM_THREADS", Env, /*Max=*/UINT_MAX));
  if (const char *Env = std::getenv("CTA_ADAPT_INTERVAL"))
    Config.AdaptInterval = static_cast<unsigned>(
        parseUint64OrDie("CTA_ADAPT_INTERVAL", Env, /*Max=*/UINT_MAX));
  if (const char *Env = std::getenv("CTA_ADAPT_POLICY"))
    Config.AdaptPolicy = parseAdaptPolicy("CTA_ADAPT_POLICY", Env);
  if (const char *Env = std::getenv("CTA_CACHE_DIR"))
    Config.CacheDir = Env;
  if (std::getenv("CTA_NO_TIMING"))
    Config.NoTiming = true;
  if (const char *Env = std::getenv("CTA_EMIT_JSON"))
    Config.EmitJsonPath = Env;
  if (argc > 0 && argv[0] && *argv[0]) {
    const char *Base = std::strrchr(argv[0], '/');
    Config.BenchName = Base ? Base + 1 : argv[0];
  }

  auto parseJobs = [](const char *Value) -> unsigned {
    return static_cast<unsigned>(
        parseUint64OrDie("--jobs", Value, /*Max=*/UINT_MAX));
  };
  auto parseSimThreads = [](const char *Value) -> unsigned {
    return static_cast<unsigned>(
        parseUint64OrDie("--sim-threads", Value, /*Max=*/UINT_MAX));
  };
  auto parseAdaptInterval = [](const char *Value) -> unsigned {
    return static_cast<unsigned>(
        parseUint64OrDie("--adapt-interval", Value, /*Max=*/UINT_MAX));
  };

  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (std::strncmp(Arg, "--jobs=", 7) == 0) {
      Config.Jobs = parseJobs(Arg + 7);
    } else if (std::strcmp(Arg, "--jobs") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--jobs needs a value");
      Config.Jobs = parseJobs(argv[++I]);
    } else if (std::strncmp(Arg, "--sim-threads=", 14) == 0) {
      Config.SimThreads = parseSimThreads(Arg + 14);
    } else if (std::strcmp(Arg, "--sim-threads") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--sim-threads needs a value");
      Config.SimThreads = parseSimThreads(argv[++I]);
    } else if (std::strncmp(Arg, "--adapt-interval=", 17) == 0) {
      Config.AdaptInterval = parseAdaptInterval(Arg + 17);
    } else if (std::strcmp(Arg, "--adapt-interval") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--adapt-interval needs a value");
      Config.AdaptInterval = parseAdaptInterval(argv[++I]);
    } else if (std::strncmp(Arg, "--adapt-policy=", 15) == 0) {
      Config.AdaptPolicy = parseAdaptPolicy("--adapt-policy", Arg + 15);
    } else if (std::strcmp(Arg, "--adapt-policy") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--adapt-policy needs a value");
      Config.AdaptPolicy = parseAdaptPolicy("--adapt-policy", argv[++I]);
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      Config.CacheDir = Arg + 12;
    } else if (std::strcmp(Arg, "--cache-dir") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--cache-dir needs a value");
      Config.CacheDir = argv[++I];
    } else if (std::strcmp(Arg, "--no-timing") == 0) {
      Config.NoTiming = true;
    } else if (std::strncmp(Arg, "--emit-json=", 12) == 0) {
      Config.EmitJsonPath = Arg + 12;
    } else if (std::strcmp(Arg, "--emit-json") == 0) {
      if (I + 1 >= argc)
        reportFatalError("--emit-json needs a value");
      Config.EmitJsonPath = argv[++I];
    }
  }
  return Config;
}

static serve::Service::Config toServiceConfig(const ExecConfig &C) {
  serve::Service::Config SC;
  SC.Jobs = C.Jobs;
  SC.CacheDir = C.CacheDir;
  SC.SkipOnShutdown = true;
  SC.SimThreads = C.SimThreads;
  return SC;
}

ExperimentRunner::ExperimentRunner(ExecConfig ConfigIn)
    : Config(std::move(ConfigIn)), Svc(toServiceConfig(Config)) {
  // Keep config() consistent with what the service resolved (Jobs == 0).
  Config.Jobs = Svc.jobs();
}

RunResult ExperimentRunner::runOne(const RunTask &Task) {
  serve::TaskOutcome Out = Svc.runOne(Task);
  {
    std::lock_guard<std::mutex> Lock(ArtifactsMutex);
    Artifacts.push_back(std::move(Out.Artifact));
  }
  return std::move(Out.Result);
}

std::vector<RunResult>
ExperimentRunner::run(const std::vector<RunTask> &Tasks) {
  std::vector<serve::TaskOutcome> Outcomes = Svc.runBatch(Tasks);
  std::vector<RunResult> Results;
  Results.reserve(Outcomes.size());
  {
    std::lock_guard<std::mutex> Lock(ArtifactsMutex);
    for (serve::TaskOutcome &Out : Outcomes) {
      Artifacts.push_back(std::move(Out.Artifact));
      Results.push_back(std::move(Out.Result));
    }
  }
  return Results;
}

std::vector<obs::RunArtifact> ExperimentRunner::artifacts() const {
  std::lock_guard<std::mutex> Lock(ArtifactsMutex);
  return Artifacts;
}

obs::ExecSummary ExperimentRunner::execSummary() const {
  obs::ExecSummary S;
  S.Jobs = Svc.jobs();
  S.SimulatorInvocations = Svc.simulatorInvocations();
  S.SimulatedAccesses = Svc.simulatedAccesses();
  S.CacheHits = Svc.cache().hits();
  S.CacheMisses = Svc.cache().misses();
  S.CacheStores = Svc.cache().stores();
  S.CacheEnabled = Svc.cache().enabled();
  S.CacheDir = Svc.cache().directory();
  return S;
}

obs::BenchArtifact ExperimentRunner::gridArtifact() const {
  obs::BenchArtifact B;
  B.Bench = Config.BenchName;
  B.Jobs = Svc.jobs();
  B.CacheEnabled = Svc.cache().enabled();
  B.CacheDir = Svc.cache().directory();
  B.CacheHits = Svc.cache().hits();
  B.CacheMisses = Svc.cache().misses();
  B.CacheStores = Svc.cache().stores();
  B.SimulatorInvocations = Svc.simulatorInvocations();
  B.SimulatedAccesses = Svc.simulatedAccesses();
  B.Runs = artifacts();
  // Process counters: everything already at the root (trace-registry
  // traffic, non-runner work) plus this runner's grid rollup, which only
  // reaches the root when the runner is destroyed.
  B.ProcessCounters = obs::MetricSink::root().snapshot();
  for (const auto &[Name, Value] : Svc.gridSink().snapshot())
    B.ProcessCounters[Name] += Value;
  B.ProcessPhases = obs::MetricSink::root().phases();
  return B;
}

void ExperimentRunner::emitArtifacts() const {
  if (Config.EmitJsonPath.empty())
    return;
  std::string Err;
  if (!gridArtifact().writeFile(Config.EmitJsonPath, &Err))
    reportFatalError(("cannot write --emit-json artifact to '" +
                      Config.EmitJsonPath + "': " + Err)
                         .c_str());
}
