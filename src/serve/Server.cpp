//===- serve/Server.cpp - The cta serve Unix-socket daemon ----------------===//

#include "serve/Server.h"

#include "exec/ExecConfig.h"
#include "obs/ObsScope.h"
#include "serve/Json.h"
#include "serve/Metrics.h"
#include "serve/Shutdown.h"
#include "support/CommandLine.h"
#include "support/ParseNumber.h"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cta;
using namespace cta::serve;

using SteadyClock = std::chrono::steady_clock;

namespace {

double secondsBetween(SteadyClock::time_point From,
                      SteadyClock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

/// Latency histograms record whole microseconds (scale 1e-6 on the way
/// back out); sub-microsecond measurements land in bucket 0.
std::uint64_t latencyMicros(double Seconds) {
  return Seconds <= 0 ? 0 : static_cast<std::uint64_t>(Seconds * 1e6);
}

} // namespace

//===----------------------------------------------------------------------===//
// Argument parsing
//===----------------------------------------------------------------------===//

/// The exec-table rows `cta serve` takes. The rest (--no-timing,
/// --emit-json, --adapt-*) shape bench output or a single run, not a
/// daemon.
static bool isServeExecFlag(const ExecFlag &F) {
  for (const char *Name : {"--jobs", "--sim-threads", "--cache-dir"})
    if (std::strcmp(F.Name, Name) == 0)
      return true;
  return false;
}

ServerOptions cta::serve::parseServeArgs(const std::vector<std::string> &Args) {
  // The exec settings: environment first, then the flags over it, as
  // parseExecArgs reads them.
  ExecConfig Exec;
  for (const ExecFlag &F : execFlags())
    if (isServeExecFlag(F))
      if (const char *Env = std::getenv(F.Env))
        F.Set(Exec, F.Env, Env);

  ServerOptions Opts;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    std::string Value;
    if (const ExecFlag *F = matchExecFlag(Args, I, Value)) {
      if (!isServeExecFlag(*F))
        reportUsageError("unknown `cta serve` flag '" + Arg + "'");
      F->Set(Exec, F->Name, Value);
    } else if (matchFlag(Args, I, "--socket", &Value)) {
      Opts.SocketPath = Value;
    } else if (matchFlag(Args, I, "--max-inflight", &Value)) {
      Opts.MaxInflight =
          static_cast<std::size_t>(parseUint64OrDie("--max-inflight", Value));
    } else if (matchFlag(Args, I, "--metrics-port", &Value)) {
      Opts.MetricsEnabled = true;
      Opts.MetricsPort = static_cast<unsigned>(
          parseUint64OrDie("--metrics-port", Value, /*Max=*/65535));
    } else if (matchFlag(Args, I, "--log-json", &Value)) {
      if (Value.empty())
        reportUsageError("--log-json needs a file path");
      Opts.LogJsonPath = Value;
    } else {
      reportUsageError("unknown `cta serve` flag '" + Arg + "'");
    }
  }
  if (Opts.SocketPath.empty())
    reportUsageError("`cta serve` needs --socket=PATH");
  Opts.Jobs = Exec.Jobs;
  Opts.SimThreads = Exec.SimThreads;
  Opts.CacheDir = Exec.CacheDir;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Connection / pending request state
//===----------------------------------------------------------------------===//

struct Server::Connection {
  int Fd = -1;
  /// Runs readerLoop; joined by reapReaders() or at shutdown.
  std::thread Reader;
  std::mutex WriteMutex;
  std::atomic<bool> ReadDone{false};
  std::atomic<std::uint64_t> PendingResponses{0};
  std::atomic<bool> Closed{false};

  /// Closes the socket once the reader is done and every accepted request
  /// has been answered. Safe to call from reader and completer; exactly
  /// one caller wins the close.
  void closeIfIdle() {
    if (!ReadDone.load(std::memory_order_acquire) ||
        PendingResponses.load(std::memory_order_acquire) != 0)
      return;
    bool Expected = false;
    if (Closed.compare_exchange_strong(Expected, true))
      ::close(Fd);
  }
};

struct Server::PendingRequest {
  std::shared_ptr<Connection> Conn;
  std::string Id;
  std::string Client;
  RunTask Task;
  SteadyClock::time_point Received;
  SteadyClock::time_point Dispatched;
  Service::Submission Sub;
  /// Telemetry span identity (obs/EventLog.h), minted at admission when
  /// the event log is on; 0 otherwise. Deliberately not part of the run
  /// fingerprint: ids name a request, not the work, so equal work still
  /// coalesces and caches across requests.
  std::uint64_t TraceId = 0;
  std::uint64_t SpanId = 0;
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

static Service::Config daemonServiceConfig(const ServerOptions &Opts) {
  Service::Config SC;
  SC.Jobs = Opts.Jobs;
  SC.CacheDir = Opts.CacheDir;
  // Admitted requests were promised a response: graceful shutdown drains
  // them (admission stops new work) instead of skipping.
  SC.SkipOnShutdown = false;
  SC.SimThreads = Opts.SimThreads;
  return SC;
}

Server::Server(ServerOptions OptsIn)
    : Opts(std::move(OptsIn)), Svc(daemonServiceConfig(Opts)),
      Admission(Opts.MaxInflight) {
  // Pin the shared uptime epoch now: its static start point is set on the
  // first call, and without this the first stats poll would read an
  // uptime near zero (breaking every lifetime-average rate derived from
  // it) instead of the daemon's age.
  (void)obs::processUptimeSeconds();
}

Server::~Server() {
  if (Metrics)
    Metrics->stop();
  if (ListenFd != -1)
    ::close(ListenFd);
  for (int Fd : StopPipe)
    if (Fd != -1)
      ::close(Fd);
}

unsigned Server::metricsPort() const { return Metrics ? Metrics->port() : 0; }

bool Server::listen(std::string *Err) {
  // Open the event log before touching the filesystem for the socket, so
  // an unwritable path fails without leaving a socket file behind.
  if (!Opts.LogJsonPath.empty()) {
    Events = obs::EventLog::open(Opts.LogJsonPath, Err);
    if (!Events)
      return false;
  }

  // Responses to clients that vanished mid-request must be EPIPE, not a
  // process-killing signal.
  std::signal(SIGPIPE, SIG_IGN);

  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    if (Err)
      *Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  ::fcntl(ListenFd, F_SETFD, FD_CLOEXEC);
  // A stale socket file from a crashed daemon would make bind fail; a
  // *live* daemon still holds its listener, and replacing its file is the
  // operator's decision — but we cannot tell the two apart portably, so
  // follow the common daemon convention: remove and rebind.
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    if (Err)
      *Err = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 128) < 0) {
    if (Err)
      *Err = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::pipe(StopPipe) == 0)
    for (int Fd : StopPipe)
      ::fcntl(Fd, F_SETFD, FD_CLOEXEC);

  if (Opts.MetricsEnabled) {
    Metrics =
        std::make_unique<MetricsServer>([this] { return telemetrySnapshot(); });
    std::string MetricsErr;
    if (!Metrics->listen(Opts.MetricsPort, &MetricsErr)) {
      if (Err)
        *Err = "cannot serve metrics on port " +
               std::to_string(Opts.MetricsPort) + ": " + MetricsErr;
      Metrics.reset();
      ::close(ListenFd);
      ListenFd = -1;
      ::unlink(Opts.SocketPath.c_str());
      return false;
    }
    Metrics->start();
  }
  return true;
}

void Server::stop() {
  Stopping.store(true);
  if (StopPipe[1] != -1) {
    char Byte = 1;
    [[maybe_unused]] ssize_t N = ::write(StopPipe[1], &Byte, 1);
  }
}

void Server::run() {
  std::thread Dispatcher([this] { dispatcherLoop(); });
  std::thread Completer([this] { completerLoop(); });

  // Accept loop: wake on a new connection, the signal handler's
  // self-pipe, or stop().
  while (!Stopping.load() && !shutdownRequested()) {
    pollfd Fds[3];
    nfds_t N = 0;
    Fds[N++] = {ListenFd, POLLIN, 0};
    if (StopPipe[0] != -1)
      Fds[N++] = {StopPipe[0], POLLIN, 0};
    if (shutdownWakeFd() != -1)
      Fds[N++] = {shutdownWakeFd(), POLLIN, 0};
    int R = ::poll(Fds, N, /*timeout_ms=*/500);
    if (R < 0 && errno != EINTR)
      break;
    reapReaders();
    if (R <= 0)
      continue;
    if (!(Fds[0].revents & POLLIN))
      continue; // a wake pipe fired; the loop condition decides
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    ::fcntl(Fd, F_SETFD, FD_CLOEXEC);
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    NumConnections.fetch_add(1);
    Conn->Reader = std::thread([this, Conn] { readerLoop(Conn); });
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connections.push_back(std::move(Conn));
  }

  // Drain. Refuse new connections and new requests first...
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(Opts.SocketPath.c_str());
  Admission.close();
  // ...give blocked readers EOF (established connections may still be
  // waiting on responses; only their *read* side is shut down)...
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (const auto &Conn : Connections)
      if (!Conn->Closed.load())
        ::shutdown(Conn->Fd, SHUT_RD);
  }
  // ...then let the pipeline answer everything that was admitted.
  Dispatcher.join();
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    DispatcherDone = true;
  }
  CompletionCV.notify_all();
  Completer.join();
  Svc.drain();
  if (Metrics)
    Metrics->stop(); // /healthz goes dark once serving has stopped
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (const auto &Conn : Connections) {
      Conn->Reader.join();
      Conn->closeIfIdle();
    }
    Connections.clear();
  }

  ServerStats S = stats();
  std::fprintf(stderr,
               "[serve] requests=%" PRIu64 " ok=%" PRIu64 " errors=%" PRIu64
               " shed=%" PRIu64 " warm=%" PRIu64 " connections=%" PRIu64
               "\n",
               S.Requests, S.Ok, S.Errors, S.Shed, S.Warm, S.Connections);
}

//===----------------------------------------------------------------------===//
// Request pipeline
//===----------------------------------------------------------------------===//

void Server::writeFrameTo(const std::shared_ptr<Connection> &Conn,
                          const std::string &Payload) {
  if (!Conn->Closed.load()) {
    std::lock_guard<std::mutex> Lock(Conn->WriteMutex);
    // A failed write means the client vanished; its request was still
    // served, and the connection will close via closeIfIdle.
    writeFrame(Conn->Fd, Payload, nullptr);
  }
  Conn->PendingResponses.fetch_sub(1, std::memory_order_release);
  Conn->closeIfIdle();
}

void Server::writeResponse(const std::shared_ptr<Connection> &Conn,
                           const std::string &Payload, bool IsError) {
  if (IsError)
    NumErrors.fetch_add(1);
  else
    NumOk.fetch_add(1);
  writeFrameTo(Conn, Payload);
}

void Server::logEvent(const PendingRequest &P, const char *Name,
                      std::string Detail, double Seconds) {
  if (!Events)
    return;
  obs::Event E;
  E.Name = Name;
  E.TraceId = P.TraceId;
  E.SpanId = P.SpanId;
  E.Id = P.Id;
  E.Client = P.Client;
  E.Detail = std::move(Detail);
  E.Seconds = Seconds;
  Events->log(E);
}

void Server::handleRequest(const std::shared_ptr<Connection> &Conn,
                           const std::string &Payload) {
  const auto Received = SteadyClock::now();

  // Every frame is parsed exactly once; stats polls route before request
  // accounting (a dashboard poll is not a request — ServerStats totals
  // must still reconcile against request frames alone).
  std::string JsonErr;
  std::optional<JsonValue> Doc = parseJson(Payload, &JsonErr);
  if (Doc && Doc->isObject()) {
    const JsonValue *Schema = Doc->get("schema");
    if (Schema && Schema->asString() == StatsSchema) {
      NumStatsRequests.fetch_add(1);
      Conn->PendingResponses.fetch_add(1);
      writeFrameTo(Conn, telemetrySnapshot().toJson());
      return;
    }
  }

  NumRequests.fetch_add(1);
  Conn->PendingResponses.fetch_add(1);

  RequestError Err;
  std::optional<ServeRequest> Req;
  if (!Doc) {
    Err.Kind = "bad_request";
    Err.Message = "malformed JSON: " + JsonErr;
  } else {
    Req = parseServeRequest(*Doc, Err);
  }
  if (!Req) {
    writeResponse(Conn, renderErrorResponse("", Err.Kind, Err.Message),
                  /*IsError=*/true);
    return;
  }

  // A request answered warm before: splice the memoised run object under
  // a fresh head. No DSL or .topo parse, no fingerprint, no render.
  std::string Key = taskKey(*Req);
  if (std::shared_ptr<const std::string> Run = findWarmRun(Key)) {
    NumMemoHits.fetch_add(1);
    const double ServiceSeconds = countWarmAnswer(Received);
    writeResponse(Conn,
                  renderOkResponse(Req->Id, "warm", /*QueueSeconds=*/0.0,
                                   ServiceSeconds, *Run),
                  /*IsError=*/false);
    return;
  }

  std::optional<RunTask> Task = buildRunTask(*Req, Err);
  if (!Task) {
    writeResponse(Conn, renderErrorResponse(Req->Id, Err.Kind, Err.Message),
                  /*IsError=*/true);
    return;
  }

  // Warm path: answered on the reader thread, no admission round-trip,
  // and no event-log line — the log records the admission lifecycle
  // (admitted, coalesced, shed, dispatched, ..., completed), which a warm
  // answer never enters. Logging every warm answer would both turn the
  // log into a firehose at warm-index rates and cost double-digit warm
  // throughput (per-line flush under the log mutex); warm latency is
  // already captured by the TierLatency histogram. The answer's run
  // object fills the memo for the next request with this key.
  const std::uint64_t Fingerprint = Service::fingerprint(*Task);
  if (std::shared_ptr<const TaskOutcome> W = Svc.lookupWarm(Fingerprint)) {
    obs::RunArtifact A = W->Artifact;
    A.CacheStatus = "warm";
    A.Label = Task->Label;
    const double ServiceSeconds = countWarmAnswer(Received);
    std::string RunJson = renderRunJson(A);
    writeResponse(Conn,
                  renderOkResponse(Req->Id, "warm", /*QueueSeconds=*/0.0,
                                   ServiceSeconds, RunJson),
                  /*IsError=*/false);
    memoizeWarmRun(std::move(Key), std::move(RunJson));
    return;
  }

  // Cold path: through admission control to the dispatcher.
  auto P = std::make_shared<PendingRequest>(PendingRequest{
      Conn, Req->Id, Req->Client, std::move(*Task), Received, {}, {}});
  // Request-scoped span identity, minted only for requests entering the
  // admission pipeline and only when the event log is on: telemetry-off
  // serving carries no ids anywhere.
  if (Events) {
    P->TraceId = obs::mintTelemetryId();
    P->SpanId = obs::mintTelemetryId();
  }
  AdmissionController::Admit Result =
      Admission.admit(Req->Client, [this, P] {
        P->Dispatched = SteadyClock::now();
        P->Sub = Svc.submit(P->Task);
        logEvent(*P,
                 P->Sub.How == Service::Tier::Coalesced ? "coalesced"
                                                        : "dispatched",
                 Service::tierName(P->Sub.How));
        {
          std::lock_guard<std::mutex> Lock(CompletionMutex);
          CompletionQueue.push_back(P);
        }
        CompletionCV.notify_one();
      });
  switch (Result) {
  case AdmissionController::Admit::Admitted:
    QueueDepth.record(Admission.inflight());
    logEvent(*P, "admitted");
    break;
  case AdmissionController::Admit::Overloaded:
    NumShed.fetch_add(1);
    logEvent(*P, "shed", "overloaded");
    writeResponse(Conn,
                  renderErrorResponse(
                      Req->Id, "overloaded",
                      "daemon at capacity (" +
                          std::to_string(Opts.MaxInflight) +
                          " requests inflight); retry with backoff"),
                  /*IsError=*/true);
    break;
  case AdmissionController::Admit::Closed:
    logEvent(*P, "shed", "shutdown");
    writeResponse(Conn,
                  renderErrorResponse(Req->Id, "shutdown",
                                      "daemon is shutting down"),
                  /*IsError=*/true);
    break;
  }
}

double Server::countWarmAnswer(SteadyClock::time_point Received) {
  NumWarm.fetch_add(1);
  const double ServiceSeconds = secondsBetween(Received, SteadyClock::now());
  TierLatency[static_cast<int>(Service::Tier::Warm)].record(
      latencyMicros(ServiceSeconds));
  return ServiceSeconds;
}

std::shared_ptr<const std::string>
Server::findWarmRun(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(MemoMutex);
  auto It = Memo.find(Key);
  return It == Memo.end() ? nullptr : It->second;
}

void Server::memoizeWarmRun(std::string Key, std::string RunJson) {
  const std::size_t Bytes = Key.size() + RunJson.size();
  if (Bytes > WarmMemoBudgetBytes)
    return;
  auto Run = std::make_shared<const std::string>(std::move(RunJson));
  std::lock_guard<std::mutex> Lock(MemoMutex);
  if (Memo.count(Key))
    return; // another reader filled it first
  if (MemoBytes + Bytes > WarmMemoBudgetBytes) {
    Memo.clear();
    MemoBytes = 0;
  }
  Memo.emplace(std::move(Key), std::move(Run));
  MemoBytes += Bytes;
  NumMemoFills.fetch_add(1);
}

std::size_t Server::warmMemoBytes() const {
  std::lock_guard<std::mutex> Lock(MemoMutex);
  return MemoBytes;
}

void Server::readerLoop(std::shared_ptr<Connection> Conn) {
  std::string Payload;
  while (true) {
    FrameStatus S = readFrame(Conn->Fd, Payload, nullptr);
    if (S != FrameStatus::Ok)
      break; // clean EOF, or a framing error that poisons the stream
    handleRequest(Conn, Payload);
  }
  Conn->ReadDone.store(true, std::memory_order_release);
  Conn->closeIfIdle();
}

void Server::reapReaders() {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  std::erase_if(Connections, [](const std::shared_ptr<Connection> &Conn) {
    if (!Conn->ReadDone.load(std::memory_order_acquire))
      return false;
    Conn->Reader.join(); // its loop has returned or is about to
    return true;
  });
}

std::size_t Server::readerCount() const {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  return Connections.size();
}

void Server::dispatcherLoop() {
  // An empty item means admission is closed and drained.
  while (AdmissionController::Item Dispatch = Admission.next())
    Dispatch();
}

void Server::completerLoop() {
  while (true) {
    std::shared_ptr<PendingRequest> P;
    {
      std::unique_lock<std::mutex> Lock(CompletionMutex);
      CompletionCV.wait(Lock, [this] {
        return !CompletionQueue.empty() || DispatcherDone;
      });
      if (CompletionQueue.empty())
        return;
      P = std::move(CompletionQueue.front());
      CompletionQueue.pop_front();
    }
    std::shared_ptr<const TaskOutcome> Shared = P->Sub.Future.get();
    obs::RunArtifact A = Shared->Artifact;
    if (A.CacheStatus == "skipped") {
      // Only possible if the Service were configured to skip on shutdown;
      // the daemon drains instead, but answer correctly regardless.
      logEvent(*P, "completed", "skipped");
      writeResponse(P->Conn,
                    renderErrorResponse(P->Id, "shutdown",
                                        "request skipped by shutdown"),
                    /*IsError=*/true);
    } else {
      const char *Status = Service::tierName(P->Sub.How);
      A.CacheStatus = Status;
      A.Label = P->Task.Label;
      const double QueueSeconds = secondsBetween(P->Received, P->Dispatched);
      const double ServiceSeconds =
          secondsBetween(P->Dispatched, SteadyClock::now());
      TierLatency[static_cast<int>(P->Sub.How)].record(
          latencyMicros(QueueSeconds + ServiceSeconds));
      logEvent(*P, "completed", Status, QueueSeconds + ServiceSeconds);
      writeResponse(P->Conn,
                    renderOkResponse(P->Id, Status, QueueSeconds,
                                     ServiceSeconds, A),
                    /*IsError=*/false);
    }
    Admission.release(1);
  }
}

//===----------------------------------------------------------------------===//
// Telemetry plane
//===----------------------------------------------------------------------===//

obs::TelemetrySnapshot Server::telemetrySnapshot() {
  obs::TelemetrySnapshot S;
  S.UptimeSeconds = obs::processUptimeSeconds();
  S.RssKb = obs::peakRssKb();

  S.Counters["serve.requests"] = NumRequests.load();
  S.Counters["serve.ok"] = NumOk.load();
  S.Counters["serve.errors"] = NumErrors.load();
  S.Counters["serve.shed"] = NumShed.load();
  S.Counters["serve.warm"] = NumWarm.load();
  S.Counters["serve.warm_memo.hits"] = NumMemoHits.load();
  S.Counters["serve.warm_memo.fills"] = NumMemoFills.load();
  S.Counters["serve.connections"] = NumConnections.load();
  S.Counters["serve.stats_requests"] = NumStatsRequests.load();
  S.Counters["serve.cache.hits"] = Svc.cache().hits();
  S.Counters["serve.cache.misses"] = Svc.cache().misses();
  S.Counters["serve.cache.stores"] = Svc.cache().stores();
  S.Counters["exec.sim.invocations"] = Svc.simulatorInvocations();
  S.Counters["exec.sim.accesses"] = Svc.simulatedAccesses();

  // The grid sink aggregates every finished run's counters: the
  // runtime.adapt.* remap activity and the engine family (sim.parallel.*).
  for (const auto &[Name, Value] : Svc.gridSink().snapshot())
    S.Counters[Name] = Value;

  // Every tier appears in every snapshot, zeros included, so consumers
  // (and the schema golden test) see a fixed shape.
  static constexpr Service::Tier AllTiers[NumTiers] = {
      Service::Tier::Warm,      Service::Tier::Coalesced,
      Service::Tier::Hit,       Service::Tier::Miss,
      Service::Tier::Disabled,  Service::Tier::Bypass};
  for (Service::Tier T : AllTiers) {
    const std::string Name = Service::tierName(T);
    const obs::LogHistogram &H = TierLatency[static_cast<int>(T)];
    S.Counters["serve.tier." + Name] = H.count();
    S.Histograms["serve.latency." + Name] = H.snapshot("seconds", 1e-6);
  }
  S.Histograms["serve.queue_depth"] = QueueDepth.snapshot("requests", 1.0);

  S.Gauges["serve.inflight"] = static_cast<double>(Admission.inflight());
  S.Gauges["serve.warm_index.entries"] =
      static_cast<double>(Svc.warmIndexSize());
  return S;
}
