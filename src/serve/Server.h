//===- serve/Server.h - The cta serve Unix-socket daemon -------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cta serve` daemon: a single process listening on a Unix-domain
/// stream socket, speaking the length-prefixed JSON protocol of
/// serve/Protocol.h, executing requests on one shared serve::Service.
///
/// Threading model:
///
///   accept loop (run())  — polls the listener and the shutdown self-pipe;
///                          spawns one reader thread per connection, and
///                          joins each reader whose connection has hit
///                          EOF, every time it wakes (at least every
///                          500 ms).
///   reader threads       — frame + parse; answer a request seen warm
///                          before from the warm memo, else buildRunTask
///                          and answer warm requests inline from the
///                          Service's in-memory index; hand cold requests
///                          to admission.
///   dispatcher thread    — pops admitted items from the
///                          AdmissionController one at a time,
///                          round-robin across clients, and submits each
///                          to the Service (inline at --jobs 1); a
///                          fingerprint already running single-flights
///                          into that run.
///   completer thread     — waits each dispatched submission's future in
///                          dispatch order, across all connections,
///                          renders the response with queue/service
///                          latency attribution, writes it to the owning
///                          connection, and releases the admission slot.
///   Service pool         — the simulators. A backlog waits in the pool's
///                          worker deques, newest item first per deque.
///
/// Graceful shutdown (SIGINT/SIGTERM or stop()): the accept loop wakes on
/// the self-pipe, closes and unlinks the listener (refusing new
/// connections), closes admission (new requests answer "shutdown" /
/// readers see EOF), lets the dispatcher and completer drain every
/// admitted request — admitted work was promised a response, so the
/// daemon's Service keeps SkipOnShutdown off — then joins all threads,
/// drains the Service, and prints the lifetime summary. The RunCache
/// needs no explicit flush: every store was already an atomic
/// write-to-temporary + rename.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_SERVER_H
#define CTA_SERVE_SERVER_H

#include "obs/EventLog.h"
#include "obs/Telemetry.h"
#include "serve/Admission.h"
#include "serve/Protocol.h"
#include "serve/Service.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace cta::serve {

class MetricsServer;

struct ServerOptions {
  std::string SocketPath;
  unsigned Jobs = 0;          ///< Service worker threads (0 = hardware).
  unsigned SimThreads = 1;    ///< Phase-1 engine threads per cold miss.
  std::string CacheDir;       ///< Persistent RunCache directory.
  std::size_t MaxInflight = 64;
  /// --metrics-port given: serve Prometheus text on 127.0.0.1:MetricsPort
  /// (0 = kernel-assigned; the daemon prints the bound port on startup).
  bool MetricsEnabled = false;
  unsigned MetricsPort = 0;
  /// --log-json=FILE: append one cta-serve-event-v1 line per request
  /// lifecycle transition. Empty disables the event log.
  std::string LogJsonPath;
};

/// Parses `cta serve` arguments: --socket, --max-inflight, --metrics-port
/// and --log-json (strict decimal via support/ParseNumber), plus three
/// rows of the exec/ExecConfig.h table: --jobs, --sim-threads and
/// --cache-dir, whose CTA_JOBS, CTA_SIM_THREADS and CTA_CACHE_DIR
/// variables they override. A malformed value, an unknown flag (the
/// table's other rows included) or a missing --socket is a usage error
/// (support/CommandLine.h): the message names the flag, exit status 1.
ServerOptions parseServeArgs(const std::vector<std::string> &Args);

/// Lifetime counters the daemon prints on shutdown (and tests assert on).
struct ServerStats {
  std::uint64_t Requests = 0;    ///< Frames that parsed as requests.
  std::uint64_t Ok = 0;          ///< Ok responses written.
  std::uint64_t Errors = 0;      ///< Error responses written (all kinds).
  std::uint64_t Shed = 0;        ///< Overloaded rejections (subset of Errors).
  std::uint64_t Warm = 0;        ///< Answered warm: memo or warm index.
  std::uint64_t Connections = 0; ///< Connections ever accepted.
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens on Opts.SocketPath. Returns false with \p Err on
  /// socket errors (path too long, bind failure).
  bool listen(std::string *Err);

  /// Serves until a shutdown signal (serve/Shutdown.h) or stop() arrives,
  /// then drains and returns. Call after listen().
  void run();

  /// Programmatic shutdown for in-process tests: identical path to
  /// SIGTERM. Safe from any thread; run() returns once drained.
  void stop();

  ServerStats stats() const {
    ServerStats S;
    S.Requests = NumRequests.load();
    S.Ok = NumOk.load();
    S.Errors = NumErrors.load();
    S.Shed = NumShed.load();
    S.Warm = NumWarm.load();
    S.Connections = NumConnections.load();
    return S;
  }
  Service &service() { return Svc; }
  const ServerOptions &options() const { return Opts; }

  /// The warm memo's byte budget over keys plus bodies.
  static constexpr std::size_t WarmMemoBudgetBytes = 8u << 20;

  /// Bytes the warm memo holds now, keys plus bodies (tests/inspection).
  std::size_t warmMemoBytes() const;

  /// Reader threads not yet joined (tests/inspection).
  std::size_t readerCount() const;

  /// Assembles one live cross-subsystem snapshot: serve counters, per-tier
  /// latency and queue-depth histograms, Service/RunCache totals and the
  /// grid sink's counter families (runtime.adapt.*, sim.*). Thread-safe;
  /// called by stats frames and the /metrics endpoint.
  obs::TelemetrySnapshot telemetrySnapshot();

  /// The bound /metrics port (resolves MetricsPort == 0); 0 when the
  /// endpoint is disabled or listen() has not run.
  unsigned metricsPort() const;

private:
  struct Connection;
  struct PendingRequest;

  void readerLoop(std::shared_ptr<Connection> Conn);
  /// Joins every reader whose loop has returned and drops its connection
  /// from Connections; the completer keeps any it still owes answers.
  void reapReaders();
  void dispatcherLoop();
  void completerLoop();
  void handleRequest(const std::shared_ptr<Connection> &Conn,
                     const std::string &Payload);
  /// Counts one warm answer to a request received at \p Received and
  /// returns its service seconds, taken now, before the response is built.
  double countWarmAnswer(std::chrono::steady_clock::time_point Received);
  /// The memoised run object of a request with \p Key; null if none.
  std::shared_ptr<const std::string> findWarmRun(const std::string &Key);
  void memoizeWarmRun(std::string Key, std::string RunJson);
  /// Appends one lifecycle event for \p P to the event log; a no-op when
  /// the log is off. \p Seconds < 0 means "not a closing event".
  void logEvent(const PendingRequest &P, const char *Name,
                std::string Detail = {}, double Seconds = -1.0);
  void writeResponse(const std::shared_ptr<Connection> &Conn,
                     const std::string &Payload, bool IsError);
  /// Writes one frame and settles the connection's pending-response
  /// accounting, without touching the ok/error counters (stats frames are
  /// polls, not requests; ServerStats totals must reconcile with request
  /// frames alone).
  void writeFrameTo(const std::shared_ptr<Connection> &Conn,
                    const std::string &Payload);

  ServerOptions Opts;
  /// The opt-in structured event log, opened by listen().
  std::unique_ptr<obs::EventLog> Events;
  Service Svc;
  AdmissionController Admission;

  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  int StopPipe[2] = {-1, -1}; ///< wakes the poll loop on stop()

  mutable std::mutex ConnMutex;
  /// Connections whose reader thread has not been joined yet.
  std::vector<std::shared_ptr<Connection>> Connections;

  std::mutex CompletionMutex;
  std::condition_variable CompletionCV;
  std::deque<std::shared_ptr<PendingRequest>> CompletionQueue;
  bool DispatcherDone = false;

  std::atomic<std::uint64_t> NumRequests{0}, NumOk{0}, NumErrors{0},
      NumShed{0}, NumWarm{0}, NumConnections{0};

  /// The warm memo: taskKey(request) -> the run object of that request's
  /// warm answer, as bytes. An entry is filled only right after the warm
  /// index answered its request (never for an error, a cold miss, a
  /// coalesced or a shed request), and a later request with the same key
  /// is answered by splicing those bytes under a fresh head. Entries never
  /// go stale: the warm index never drops or replaces a fingerprint,
  /// because Service::submit answers a warm key before it would run it
  /// again. If the index ever gains eviction, this memo must be cleared
  /// with it. Keys hold the DSL and .topo texts, and texts differing only
  /// in comments share one fingerprint under many keys, so the memo is
  /// bounded by WarmMemoBudgetBytes: an insert that would exceed it clears
  /// the memo first, and the warm index refills it.
  mutable std::mutex MemoMutex;
  std::unordered_map<std::string, std::shared_ptr<const std::string>> Memo;
  std::size_t MemoBytes = 0;
  std::atomic<std::uint64_t> NumMemoHits{0}, NumMemoFills{0};

  // Telemetry plane. Lives entirely at the Server level and never touches
  // run sinks, so artifacts stay deterministic with telemetry on or off.
  static constexpr std::size_t NumTiers = 6; ///< Service::Tier values.
  /// End-to-end (queue + service) latency per answer tier, microseconds.
  obs::LogHistogram TierLatency[NumTiers];
  /// Admitted-but-unreleased depth sampled at each successful admit.
  obs::LogHistogram QueueDepth;
  std::atomic<std::uint64_t> NumStatsRequests{0};
  /// The /metrics endpoint. Declared after Svc: its serving thread calls
  /// telemetrySnapshot(), so it must be destroyed first.
  std::unique_ptr<MetricsServer> Metrics;
};

} // namespace cta::serve

#endif // CTA_SERVE_SERVER_H
