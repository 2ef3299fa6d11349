//===- serve/Client.h - cta client load generator --------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cta client` load generator for a running `cta serve` daemon: N
/// worker threads, one connection each, issuing synchronous request/
/// response round-trips until the request budget is spent. A warm:cold
/// mix is steered per request — warm requests repeat one fingerprint (a
/// priming request puts it in the daemon's warm index before the clock
/// starts), cold requests perturb alpha by a unique epsilon so every one
/// is a fresh fingerprint and a real simulator run.
///
/// Results are emitted as a cta-serve-bench-v1 document:
///   { "schema": "cta-serve-bench-v1", "benchmark": "serve_throughput",
///     "socket": ..., "workload": ..., "machine": ..., "strategy": ...,
///     "requests": N, "concurrency": N, "mix": "W:C",
///     "ok": N, "errors": {kind: count}, "cache_status": {status: count},
///     "wall_seconds": S, "requests_per_second": R,
///     "latency_seconds": {"mean":..,"p50":..,"p90":..,"p99":..,"max":..},
///     "queue_seconds_mean": S, "service_seconds_mean": S,
///     "server_queue_seconds": {"mean":..,"p50":..,"p99":..,"max":..},
///     "server_service_seconds": {"mean":..,"p50":..,"p99":..,"max":..} }
/// scripts/compare_bench.py gates requests_per_second against the
/// committed baseline the same way it gates simulator wall time.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_CLIENT_H
#define CTA_SERVE_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

namespace cta::serve {

struct ClientOptions {
  std::string SocketPath;
  /// Workload: a .cta file (sent as inline DSL) or a builtin suite name.
  std::string WorkloadSpec = "cg";
  /// Machine: a .topo file (sent as inline text) or a preset name.
  std::string MachineSpec = "dunnington";
  std::string Strategy = "topology-aware";
  double Scale = 1.0 / 32;
  std::uint64_t Concurrency = 1;
  std::uint64_t Requests = 100;
  std::uint64_t MixWarm = 1; ///< warm share of the --mix WARM:COLD ratio
  std::uint64_t MixCold = 0; ///< cold share
  std::string EmitJsonPath;      ///< cta-serve-bench-v1 output
  std::string DumpResponsePath;  ///< write one raw response document
  std::string ClientName = "cta-client";
};

/// Parses `cta client` arguments (--socket, --workload, --machine,
/// --strategy, --scale, --concurrency, --requests, --mix W:C,
/// --emit-json, --dump-response, --client). Numeric flags use the strict
/// support/ParseNumber parsing; a malformed value or unknown flag is a
/// usage error (support/CommandLine.h): the message names it, exit 1.
ClientOptions parseClientArgs(const std::vector<std::string> &Args);

/// Runs the load. Returns the process exit code: 0 when every round-trip
/// completed at the protocol level (error *responses* are counted in the
/// artifact, not fatal), 1 on connect/frame failures or a response that
/// is not a cta-serve-resp-v1 document.
int runClient(const ClientOptions &Opts);

} // namespace cta::serve

#endif // CTA_SERVE_CLIENT_H
