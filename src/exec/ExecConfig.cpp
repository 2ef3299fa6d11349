//===- exec/ExecConfig.cpp - Execution settings and their flags -----------===//

#include "exec/ExecConfig.h"

#include "support/CommandLine.h"
#include "support/ParseNumber.h"

#include <climits>
#include <cstdlib>
#include <cstring>
#include <vector>

using namespace cta;

namespace {

unsigned parseCount(const char *What, const std::string &Value) {
  return static_cast<unsigned>(
      parseUint64OrDie(What, Value, /*Max=*/UINT_MAX));
}

/// Validates an --adapt-policy value; the two names mirror the
/// adaptive-greedy / adaptive-mw strategies.
std::string parseAdaptPolicy(const char *What, const std::string &Value) {
  if (Value != "greedy" && Value != "mw")
    reportUsageError(std::string(What) + ": unknown adaptive policy '" +
                     Value + "' (expected 'greedy' or 'mw')");
  return Value;
}

/// Every exec setting, in the order parseExecArgs reads the environment.
constexpr ExecFlag Flags[] = {
    {"--jobs", "CTA_JOBS", true,
     [](ExecConfig &C, const char *What, const std::string &V) {
       C.Jobs = parseCount(What, V);
     }},
    {"--sim-threads", "CTA_SIM_THREADS", true,
     [](ExecConfig &C, const char *What, const std::string &V) {
       C.SimThreads = parseCount(What, V);
     }},
    {"--adapt-interval", "CTA_ADAPT_INTERVAL", true,
     [](ExecConfig &C, const char *What, const std::string &V) {
       C.AdaptInterval = parseCount(What, V);
     }},
    {"--adapt-policy", "CTA_ADAPT_POLICY", true,
     [](ExecConfig &C, const char *What, const std::string &V) {
       C.AdaptPolicy = parseAdaptPolicy(What, V);
     }},
    {"--cache-dir", "CTA_CACHE_DIR", true,
     [](ExecConfig &C, const char *, const std::string &V) {
       C.CacheDir = V;
     }},
    {"--no-timing", "CTA_NO_TIMING", false,
     [](ExecConfig &C, const char *, const std::string &) {
       C.NoTiming = true;
     }},
    {"--emit-json", "CTA_EMIT_JSON", true,
     [](ExecConfig &C, const char *, const std::string &V) {
       C.EmitJsonPath = V;
     }},
};

} // namespace

std::span<const ExecFlag> cta::execFlags() { return Flags; }

const ExecFlag *cta::matchExecFlag(std::span<const std::string> Args,
                                   std::size_t &I, std::string &Value) {
  Value.clear();
  for (const ExecFlag &F : Flags)
    if (matchFlag(Args, I, F.Name, F.TakesValue ? &Value : nullptr))
      return &F;
  return nullptr;
}

ExecConfig cta::execConfigFromEnv() {
  ExecConfig Config;
  for (const ExecFlag &F : Flags)
    if (const char *Env = std::getenv(F.Env))
      F.Set(Config, F.Env, Env);
  return Config;
}

ExecConfig cta::parseExecArgs(int argc, char **argv) {
  ExecConfig Config = execConfigFromEnv();
  if (argc > 0 && argv[0] && *argv[0]) {
    const char *Base = std::strrchr(argv[0], '/');
    Config.BenchName = Base ? Base + 1 : argv[0];
  }
  const std::vector<std::string> Args(argv, argv + argc);
  std::string Value;
  for (std::size_t I = 1; I < Args.size(); ++I)
    if (const ExecFlag *F = matchExecFlag(Args, I, Value))
      F->Set(Config, F->Name, Value);
  return Config;
}
