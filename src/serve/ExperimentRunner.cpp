//===- serve/ExperimentRunner.cpp - Bench-facing shim over the Service ----===//
//
// Lives in serve/ (not exec/) because the runner is now a collection layer
// over serve::Service; the public header stays at exec/ExperimentRunner.h
// so bench binaries and tests keep their includes.
//
//===----------------------------------------------------------------------===//

#include "exec/ExperimentRunner.h"

#include "support/ErrorHandling.h"

#include <string>

using namespace cta;

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
