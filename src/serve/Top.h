//===- serve/Top.h - Live fleet dashboard (cta top) ------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `cta top`: connects to a running daemon's Unix socket, polls
/// cta-serve-stats-v1 frames on an interval, and renders a refreshing
/// terminal dashboard — tier throughput and latency percentiles, inflight
/// and shed counts, RunCache hit ratio, and adaptive remap activity.
/// Rates are deltas between successive snapshots; the first frame shows
/// lifetime averages.
///
/// The dashboard is read-only and uses the same socket as requests, so
/// watching a fleet needs no extra daemon configuration (--metrics-port is
/// for Prometheus; cta top works against any live daemon).
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_TOP_H
#define CTA_SERVE_TOP_H

#include <cstdint>
#include <string>
#include <vector>

namespace cta::serve {

struct TopOptions {
  std::string SocketPath;
  std::uint64_t IntervalMs = 1000; ///< Delay between polls.
  std::uint64_t Count = 0;         ///< Frames to render; 0 = until ^C/EOF.
  /// Render one frame without clearing the screen and exit (scripts,
  /// tests). Implies Count = 1.
  bool Once = false;
};

/// Parses `cta top` arguments: --socket=PATH (required), --interval-ms=N,
/// --count=N, --once. An unknown flag or malformed value is a usage
/// error (support/CommandLine.h): the message names it, exit status 1.
TopOptions parseTopArgs(const std::vector<std::string> &Args);

/// Runs the dashboard loop. Returns the process exit code (non-zero when
/// the daemon is unreachable or answers with something that is not a
/// stats frame).
int runTop(const TopOptions &Opts);

} // namespace cta::serve

#endif // CTA_SERVE_TOP_H
