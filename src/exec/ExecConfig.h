//===- exec/ExecConfig.h - Execution settings and their flags --*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution settings every bench binary, example and `cta run`
/// share, and the one table of command-line flags and CTA_* environment
/// variables that sets them.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_EXEC_EXECCONFIG_H
#define CTA_EXEC_EXECCONFIG_H

#include <span>
#include <string>

namespace cta {

/// Runner configuration, normally produced by parseExecArgs().
struct ExecConfig {
  /// Worker threads. 0 = one per hardware thread; 1 = run inline on the
  /// calling thread (no pool).
  unsigned Jobs = 0;
  /// Simulator threads per run (--sim-threads=N / CTA_SIM_THREADS), the
  /// threads that share the engine's phase 1 (SimExec::Threads): 1 = the
  /// calling thread; 0 = one per hardware thread; N > 1 = at most N.
  /// Bit-identical results for every value, so it is deliberately NOT
  /// part of the run fingerprint — cached results are valid across
  /// thread counts.
  unsigned SimThreads = 1;
  /// Directory of the persistent RunCache; empty disables caching.
  std::string CacheDir;
  /// Suppress wall-clock columns in bench tables (--no-timing /
  /// CTA_NO_TIMING) so stdout is byte-comparable across runs and hosts.
  bool NoTiming = false;
  /// Where to write the machine-readable BenchArtifact JSON
  /// (--emit-json=PATH / CTA_EMIT_JSON); empty disables emission.
  std::string EmitJsonPath;
  /// Name recorded in emitted artifacts; parseExecArgs() defaults it to
  /// the binary's basename.
  std::string BenchName = "bench";
  /// Adaptive strategies: groups each core retires between remap commit
  /// points (--adapt-interval=N / CTA_ADAPT_INTERVAL). 0 = keep the
  /// MappingOptions default. Part of the run fingerprint (it changes
  /// simulated cycles), unlike SimThreads.
  unsigned AdaptInterval = 0;
  /// Shorthand strategy selector (--adapt-policy=greedy|mw /
  /// CTA_ADAPT_POLICY): `cta run` maps "greedy" to the adaptive-greedy
  /// strategy and "mw" to adaptive-mw. Empty = no override.
  std::string AdaptPolicy;
};

/// One row of the flag table: a flag read with support/CommandLine.h's
/// grammar (`--name=V` and `--name V`, or bare `--name` when it takes no
/// value) and the environment variable it overrides. A bare flag's
/// variable counts by presence only.
struct ExecFlag {
  const char *Name;
  const char *Env;
  bool TakesValue;
  /// Stores \p Value into \p Config; \p What (the flag or variable
  /// name) labels the usage error for a malformed value.
  void (*Set)(ExecConfig &Config, const char *What, const std::string &Value);
};

/// Every row of the flag table, in the order parseExecArgs reads the
/// environment.
std::span<const ExecFlag> execFlags();

/// Matches Args[I] against the flag table. On a match returns the row
/// and sets \p Value to the flag's value (empty for a bare flag),
/// advancing \p I past a separate value. Returns null for any other
/// argument.
const ExecFlag *matchExecFlag(std::span<const std::string> Args,
                              std::size_t &I, std::string &Value);

/// A default ExecConfig under the table's environment variables
/// (CTA_JOBS, CTA_SIM_THREADS, CTA_ADAPT_INTERVAL, CTA_ADAPT_POLICY,
/// CTA_CACHE_DIR, CTA_NO_TIMING, CTA_EMIT_JSON).
ExecConfig execConfigFromEnv();

/// execConfigFromEnv(), then the table's flags from \p argv over it:
/// --jobs, --sim-threads, --adapt-interval, --adapt-policy=greedy|mw,
/// --cache-dir, --no-timing and --emit-json. Unrecognized arguments are
/// left alone so benches can layer their own flags. A malformed value
/// (anything that is not a plain in-range decimal for the numeric
/// settings, or an unknown --adapt-policy name) is a usage error: the
/// message names the flag or variable and the process exits 1.
ExecConfig parseExecArgs(int argc, char **argv);

} // namespace cta

#endif // CTA_EXEC_EXECCONFIG_H
