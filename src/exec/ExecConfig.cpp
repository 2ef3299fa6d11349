//===- exec/ExecConfig.cpp - Execution settings and their flags -----------===//

#include "exec/ExecConfig.h"

#include "support/ErrorHandling.h"
#include "support/ParseNumber.h"

#include <climits>
#include <cstdlib>
#include <cstring>

using namespace cta;

namespace {

unsigned parseCount(const char *What, const char *Value) {
  return static_cast<unsigned>(
      parseUint64OrDie(What, Value, /*Max=*/UINT_MAX));
}

/// Validates an --adapt-policy value; the two names mirror the
/// adaptive-greedy / adaptive-mw strategies.
std::string parseAdaptPolicy(const char *What, const char *Value) {
  std::string V = Value;
  if (V != "greedy" && V != "mw")
    reportFatalError((std::string(What) + ": unknown adaptive policy '" + V +
                      "' (expected 'greedy' or 'mw')")
                         .c_str());
  return V;
}

/// Every exec setting, in the order parseExecArgs reads the environment.
constexpr ExecFlag Flags[] = {
    {"--jobs", "CTA_JOBS", true,
     [](ExecConfig &C, const char *What, const char *V) {
       C.Jobs = parseCount(What, V);
     }},
    {"--sim-threads", "CTA_SIM_THREADS", true,
     [](ExecConfig &C, const char *What, const char *V) {
       C.SimThreads = parseCount(What, V);
     }},
    {"--adapt-interval", "CTA_ADAPT_INTERVAL", true,
     [](ExecConfig &C, const char *What, const char *V) {
       C.AdaptInterval = parseCount(What, V);
     }},
    {"--adapt-policy", "CTA_ADAPT_POLICY", true,
     [](ExecConfig &C, const char *What, const char *V) {
       C.AdaptPolicy = parseAdaptPolicy(What, V);
     }},
    {"--cache-dir", "CTA_CACHE_DIR", true,
     [](ExecConfig &C, const char *, const char *V) { C.CacheDir = V; }},
    {"--no-timing", "CTA_NO_TIMING", false,
     [](ExecConfig &C, const char *, const char *) { C.NoTiming = true; }},
    {"--emit-json", "CTA_EMIT_JSON", true,
     [](ExecConfig &C, const char *, const char *V) { C.EmitJsonPath = V; }},
};

} // namespace

std::span<const ExecFlag> cta::execFlags() { return Flags; }

const ExecFlag *cta::matchExecFlag(int argc, char **argv, int &I,
                                   const char *&Value) {
  const char *Arg = argv[I];
  Value = nullptr;
  for (const ExecFlag &F : Flags) {
    const std::size_t Len = std::strlen(F.Name);
    if (std::strncmp(Arg, F.Name, Len) != 0)
      continue;
    if (Arg[Len] == '\0') {
      if (F.TakesValue && I + 1 < argc)
        Value = argv[++I];
      return &F;
    }
    if (F.TakesValue && Arg[Len] == '=') {
      Value = Arg + Len + 1;
      return &F;
    }
  }
  return nullptr;
}

ExecConfig cta::parseExecArgs(int argc, char **argv) {
  ExecConfig Config;
  for (const ExecFlag &F : Flags)
    if (const char *Env = std::getenv(F.Env))
      F.Set(Config, F.Env, Env);
  if (argc > 0 && argv[0] && *argv[0]) {
    const char *Base = std::strrchr(argv[0], '/');
    Config.BenchName = Base ? Base + 1 : argv[0];
  }

  for (int I = 1; I < argc; ++I) {
    const char *Value = nullptr;
    const ExecFlag *F = matchExecFlag(argc, argv, I, Value);
    if (F == nullptr)
      continue;
    if (F->TakesValue && Value == nullptr)
      reportFatalError((std::string(F->Name) + " needs a value").c_str());
    F->Set(Config, F->Name, Value);
  }
  return Config;
}
