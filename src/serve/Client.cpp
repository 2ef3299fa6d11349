//===- serve/Client.cpp - cta client load generator -----------------------===//

#include "serve/Client.h"

#include "serve/Json.h"
#include "serve/Protocol.h"

#include "obs/Json.h"
#include "support/CommandLine.h"
#include "support/ParseNumber.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace cta;
using namespace cta::serve;

using SteadyClock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Argument parsing
//===----------------------------------------------------------------------===//

ClientOptions
cta::serve::parseClientArgs(const std::vector<std::string> &Args) {
  ClientOptions Opts;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    std::string Value;
    if (matchFlag(Args, I, "--socket", &Value)) {
      Opts.SocketPath = Value;
    } else if (matchFlag(Args, I, "--workload", &Value)) {
      Opts.WorkloadSpec = Value;
    } else if (matchFlag(Args, I, "--machine", &Value)) {
      Opts.MachineSpec = Value;
    } else if (matchFlag(Args, I, "--strategy", &Value)) {
      Opts.Strategy = Value;
    } else if (matchFlag(Args, I, "--scale", &Value)) {
      Opts.Scale = parseFiniteDoubleOrDie("--scale", Value);
      if (!(Opts.Scale > 0.0))
        reportUsageError("--scale must be positive");
    } else if (matchFlag(Args, I, "--concurrency", &Value)) {
      Opts.Concurrency = parseUint64OrDie("--concurrency", Value,
                                          /*Max=*/4096);
      if (Opts.Concurrency == 0)
        reportUsageError("--concurrency must be at least 1");
    } else if (matchFlag(Args, I, "--requests", &Value)) {
      Opts.Requests = parseUint64OrDie("--requests", Value);
    } else if (matchFlag(Args, I, "--mix", &Value)) {
      std::size_t Colon = Value.find(':');
      if (Colon == std::string::npos)
        reportUsageError("--mix wants WARM:COLD, e.g. --mix 9:1");
      Opts.MixWarm = parseUint64OrDie("--mix (warm)", Value.substr(0, Colon));
      Opts.MixCold = parseUint64OrDie("--mix (cold)", Value.substr(Colon + 1));
      if (Opts.MixWarm + Opts.MixCold == 0)
        reportUsageError("--mix needs a nonzero warm:cold ratio");
    } else if (matchFlag(Args, I, "--emit-json", &Value)) {
      Opts.EmitJsonPath = Value;
    } else if (matchFlag(Args, I, "--dump-response", &Value)) {
      Opts.DumpResponsePath = Value;
    } else if (matchFlag(Args, I, "--client", &Value)) {
      Opts.ClientName = Value;
    } else {
      reportUsageError("unknown `cta client` flag '" + Arg + "'");
    }
  }
  if (Opts.SocketPath.empty())
    reportUsageError("`cta client` needs --socket=PATH");
  return Opts;
}

//===----------------------------------------------------------------------===//
// Request construction
//===----------------------------------------------------------------------===//

namespace {

bool readFileInto(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Resolved workload/machine payloads: files are inlined into the
/// request, bare names ride as builtin/preset references. Resolution
/// happens once, client-side, so the hot loop only formats strings.
struct RequestTemplate {
  bool WorkloadIsDsl = false;
  std::string WorkloadText; // DSL source or builtin name
  std::string WorkloadName; // diagnostic filename for DSL
  bool MachineIsTopo = false;
  std::string MachineText; // .topo text or preset name
};

RequestTemplate resolveTemplate(const ClientOptions &Opts) {
  RequestTemplate T;
  T.WorkloadIsDsl = readFileInto(Opts.WorkloadSpec, T.WorkloadText);
  if (T.WorkloadIsDsl)
    T.WorkloadName = Opts.WorkloadSpec;
  else
    T.WorkloadText = Opts.WorkloadSpec; // builtin; server validates
  T.MachineIsTopo = readFileInto(Opts.MachineSpec, T.MachineText);
  if (!T.MachineIsTopo)
    T.MachineText = Opts.MachineSpec; // preset; server validates
  return T;
}

/// Renders one cta-serve-req-v1. A cold request carries a unique alpha
/// perturbation so its fingerprint never repeats (each one is a genuine
/// simulator run); warm requests all share the template's fingerprint.
std::string renderRequest(const ClientOptions &Opts, const RequestTemplate &T,
                          const std::string &Id, const std::string &Client,
                          std::optional<double> Alpha) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(RequestSchema);
  W.key("id");
  W.value(Id);
  W.key("client");
  W.value(Client);
  if (T.WorkloadIsDsl) {
    W.key("dsl");
    W.value(T.WorkloadText);
    W.key("dsl_name");
    W.value(T.WorkloadName);
  } else {
    W.key("workload");
    W.value(T.WorkloadText);
  }
  if (T.MachineIsTopo) {
    W.key("topo");
    W.value(T.MachineText);
  } else {
    W.key("machine");
    W.value(T.MachineText);
  }
  W.key("strategy");
  W.value(Opts.Strategy);
  W.key("scale");
  W.value(Opts.Scale);
  if (Alpha) {
    W.key("alpha");
    W.value(*Alpha);
  }
  W.endObject();
  return W.str();
}

//===----------------------------------------------------------------------===//
// Transport
//===----------------------------------------------------------------------===//

/// One synchronous round-trip. Returns false on transport failure.
bool roundTrip(int Fd, const std::string &Request, std::string &Response,
               std::string *Err) {
  if (!writeFrame(Fd, Request, Err))
    return false;
  FrameStatus FS = readFrame(Fd, Response, Err);
  if (FS == FrameStatus::Ok)
    return true;
  if (FS == FrameStatus::Eof && Err)
    *Err = "daemon closed the connection mid-request";
  return false;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Per-worker tallies, merged after the join (no shared hot-path state
/// beyond the ticket counter).
struct WorkerStats {
  std::vector<double> LatencySeconds;
  /// Server-attributed latency split, one sample per ok response: time the
  /// request sat admitted-but-undispatched vs. time inside the Service.
  std::vector<double> QueueSeconds, ServiceSeconds;
  std::map<std::string, std::uint64_t> CacheStatus; // ok responses
  std::map<std::string, std::uint64_t> ErrorKinds;  // error responses
  std::uint64_t Ok = 0;
  std::string TransportError; // non-empty => worker aborted
};

double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  double Rank = P * static_cast<double>(Sorted.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Rank);
  std::size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * Frac;
}

} // namespace

//===----------------------------------------------------------------------===//
// runClient
//===----------------------------------------------------------------------===//

int cta::serve::runClient(const ClientOptions &Opts) {
  const RequestTemplate Template = resolveTemplate(Opts);
  const std::uint64_t MixPeriod = Opts.MixWarm + Opts.MixCold;

  // Priming round-trip (unmeasured): puts the warm fingerprint into the
  // daemon's index so a warm-mix benchmark measures warm serving, not one
  // initial cold miss. Also the natural place to fail fast on a bad
  // socket, an unknown builtin, or DSL that does not parse.
  std::string PrimeResponse;
  {
    std::string Err;
    int Fd = connectToDaemon(Opts.SocketPath, &Err);
    if (Fd < 0) {
      std::fprintf(stderr, "cta client: %s\n", Err.c_str());
      return 1;
    }
    std::string Req =
        renderRequest(Opts, Template, "prime", Opts.ClientName + "-prime",
                      /*Alpha=*/std::nullopt);
    bool OkTrip = roundTrip(Fd, Req, PrimeResponse, &Err);
    ::close(Fd);
    if (!OkTrip) {
      std::fprintf(stderr, "cta client: priming request failed: %s\n",
                   Err.c_str());
      return 1;
    }
    std::optional<JsonValue> Doc = parseJson(PrimeResponse, &Err);
    if (!Doc || Doc->get("schema") == nullptr ||
        Doc->get("schema")->asString() != ResponseSchema) {
      std::fprintf(stderr, "cta client: daemon sent a non-%s response\n",
                   ResponseSchema);
      return 1;
    }
    if (const JsonValue *Error = Doc->get("error")) {
      const JsonValue *Kind = Error->get("kind");
      const JsonValue *Message = Error->get("message");
      std::fprintf(stderr, "cta client: priming request rejected (%s): %s\n",
                   Kind ? Kind->asString().c_str() : "?",
                   Message ? Message->asString().c_str() : "");
      return 1;
    }
  }
  if (!Opts.DumpResponsePath.empty()) {
    std::ofstream Out(Opts.DumpResponsePath, std::ios::binary);
    Out << PrimeResponse << "\n";
    if (!Out) {
      std::fprintf(stderr, "cta client: cannot write %s\n",
                   Opts.DumpResponsePath.c_str());
      return 1;
    }
  }

  // The measured run: workers race a shared ticket counter; ticket k is
  // warm when k mod (W+C) < W, otherwise cold with alpha perturbed by a
  // k-unique epsilon (1e-9 steps are far below any meaningful alpha yet
  // distinct in the fingerprint hash).
  std::atomic<std::uint64_t> NextTicket{0};
  std::vector<WorkerStats> Stats(Opts.Concurrency);
  std::vector<std::thread> Workers;
  Workers.reserve(Opts.Concurrency);

  const auto Begin = SteadyClock::now();
  for (std::uint64_t WI = 0; WI != Opts.Concurrency; ++WI) {
    Workers.emplace_back([&, WI] {
      WorkerStats &S = Stats[WI];
      std::string Err;
      int Fd = connectToDaemon(Opts.SocketPath, &Err);
      if (Fd < 0) {
        S.TransportError = Err;
        return;
      }
      const std::string Client = Opts.ClientName + "-" + std::to_string(WI);
      std::string Response;
      for (std::uint64_t Ticket = NextTicket.fetch_add(1);
           Ticket < Opts.Requests; Ticket = NextTicket.fetch_add(1)) {
        bool Warm = (Ticket % MixPeriod) < Opts.MixWarm;
        std::optional<double> Alpha;
        if (!Warm)
          Alpha = 0.25 + static_cast<double>(Ticket + 1) * 1e-9;
        std::string Req =
            renderRequest(Opts, Template, "r" + std::to_string(Ticket),
                          Client, Alpha);
        const auto T0 = SteadyClock::now();
        if (!roundTrip(Fd, Req, Response, &Err)) {
          S.TransportError = Err;
          break;
        }
        const auto T1 = SteadyClock::now();
        S.LatencySeconds.push_back(
            std::chrono::duration<double>(T1 - T0).count());
        std::optional<JsonValue> Doc = parseJson(Response, &Err);
        if (!Doc || Doc->get("schema") == nullptr ||
            Doc->get("schema")->asString() != ResponseSchema) {
          S.TransportError =
              "non-" + std::string(ResponseSchema) + " response: " + Err;
          break;
        }
        if (const JsonValue *Error = Doc->get("error")) {
          const JsonValue *Kind = Error->get("kind");
          ++S.ErrorKinds[Kind ? Kind->asString() : "?"];
          continue;
        }
        ++S.Ok;
        if (const JsonValue *CS = Doc->get("cache_status"))
          ++S.CacheStatus[CS->asString()];
        if (const JsonValue *Q = Doc->get("queue_seconds"))
          S.QueueSeconds.push_back(Q->asNumber());
        if (const JsonValue *Sv = Doc->get("service_seconds"))
          S.ServiceSeconds.push_back(Sv->asNumber());
      }
      ::close(Fd);
    });
  }
  for (std::thread &T : Workers)
    T.join();
  const double WallSeconds =
      std::chrono::duration<double>(SteadyClock::now() - Begin).count();

  // Merge.
  std::vector<double> Latency, ServerQueue, ServerService;
  std::map<std::string, std::uint64_t> CacheStatus, ErrorKinds;
  std::uint64_t Ok = 0, Errors = 0;
  bool TransportFailed = false;
  for (const WorkerStats &S : Stats) {
    Latency.insert(Latency.end(), S.LatencySeconds.begin(),
                   S.LatencySeconds.end());
    ServerQueue.insert(ServerQueue.end(), S.QueueSeconds.begin(),
                       S.QueueSeconds.end());
    ServerService.insert(ServerService.end(), S.ServiceSeconds.begin(),
                         S.ServiceSeconds.end());
    for (const auto &[K, V] : S.CacheStatus)
      CacheStatus[K] += V;
    for (const auto &[K, V] : S.ErrorKinds) {
      ErrorKinds[K] += V;
      Errors += V;
    }
    Ok += S.Ok;
    if (!S.TransportError.empty()) {
      std::fprintf(stderr, "cta client: worker failed: %s\n",
                   S.TransportError.c_str());
      TransportFailed = true;
    }
  }
  std::sort(Latency.begin(), Latency.end());
  std::sort(ServerQueue.begin(), ServerQueue.end());
  std::sort(ServerService.begin(), ServerService.end());
  double QueueSum = 0.0, ServiceSum = 0.0;
  for (double Q : ServerQueue)
    QueueSum += Q;
  for (double Sv : ServerService)
    ServiceSum += Sv;
  const std::uint64_t Completed = Ok + Errors;
  const double Rps =
      WallSeconds > 0.0 ? static_cast<double>(Completed) / WallSeconds : 0.0;

  double LatencyMean = 0.0;
  for (double L : Latency)
    LatencyMean += L;
  if (!Latency.empty())
    LatencyMean /= static_cast<double>(Latency.size());

  // cta-serve-bench-v1.
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(BenchSchema);
  W.key("benchmark");
  W.value("serve_throughput");
  W.key("socket");
  W.value(Opts.SocketPath);
  W.key("workload");
  W.value(Opts.WorkloadSpec);
  W.key("machine");
  W.value(Opts.MachineSpec);
  W.key("strategy");
  W.value(Opts.Strategy);
  W.key("requests");
  W.value(Opts.Requests);
  W.key("concurrency");
  W.value(Opts.Concurrency);
  W.key("mix");
  W.value(std::to_string(Opts.MixWarm) + ":" + std::to_string(Opts.MixCold));
  W.key("ok");
  W.value(Ok);
  W.key("errors");
  W.beginObject();
  for (const auto &[K, V] : ErrorKinds) {
    W.key(K);
    W.value(V);
  }
  W.endObject();
  W.key("cache_status");
  W.beginObject();
  for (const auto &[K, V] : CacheStatus) {
    W.key(K);
    W.value(V);
  }
  W.endObject();
  W.key("wall_seconds");
  W.value(WallSeconds);
  W.key("requests_per_second");
  W.value(Rps);
  W.key("latency_seconds");
  W.beginObject();
  W.key("mean");
  W.value(LatencyMean);
  W.key("p50");
  W.value(percentile(Latency, 0.50));
  W.key("p90");
  W.value(percentile(Latency, 0.90));
  W.key("p99");
  W.value(percentile(Latency, 0.99));
  W.key("max");
  W.value(Latency.empty() ? 0.0 : Latency.back());
  W.endObject();
  W.key("queue_seconds_mean");
  W.value(Ok ? QueueSum / static_cast<double>(Ok) : 0.0);
  W.key("service_seconds_mean");
  W.value(Ok ? ServiceSum / static_cast<double>(Ok) : 0.0);
  // Server-attributed latency split distributions (not just means): the
  // sum of the two is the server-side view of each round-trip, so queue
  // percentiles expose admission backlog that the client-side latency
  // percentiles cannot attribute.
  auto emitSplit = [&](const char *Key, const std::vector<double> &Sorted,
                       double Sum) {
    W.key(Key);
    W.beginObject();
    W.key("mean");
    W.value(Sorted.empty() ? 0.0
                           : Sum / static_cast<double>(Sorted.size()));
    W.key("p50");
    W.value(percentile(Sorted, 0.50));
    W.key("p99");
    W.value(percentile(Sorted, 0.99));
    W.key("max");
    W.value(Sorted.empty() ? 0.0 : Sorted.back());
    W.endObject();
  };
  emitSplit("server_queue_seconds", ServerQueue, QueueSum);
  emitSplit("server_service_seconds", ServerService, ServiceSum);
  W.endObject();

  if (!Opts.EmitJsonPath.empty()) {
    std::ofstream Out(Opts.EmitJsonPath, std::ios::binary);
    Out << W.str() << "\n";
    if (!Out) {
      std::fprintf(stderr, "cta client: cannot write %s\n",
                   Opts.EmitJsonPath.c_str());
      return 1;
    }
  }

  std::printf("serve bench: %" PRIu64 "/%" PRIu64 " ok (%" PRIu64
              " errors) in %.3fs -> %.0f req/s (p50 %.6fs, p99 %.6fs)\n",
              Ok, Opts.Requests, Errors, WallSeconds, Rps,
              percentile(Latency, 0.50), percentile(Latency, 0.99));
  return TransportFailed ? 1 : 0;
}
