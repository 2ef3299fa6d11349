//===- serve/Protocol.cpp - cta serve wire protocol -----------------------===//

#include "serve/Protocol.h"

#include "driver/Experiment.h"
#include "frontend/Parser.h"
#include "obs/Json.h"
#include "serve/Json.h"
#include "support/Hashing.h"
#include "topo/Parse.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cta;
using namespace cta::serve;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

namespace {

/// read(2) exactly \p Len bytes. Returns bytes read (short only at EOF/
/// error); EINTR restarts so a shutdown signal cannot corrupt framing.
std::size_t readFull(int Fd, char *Buf, std::size_t Len) {
  std::size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::read(Fd, Buf + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Done;
    }
    if (N == 0)
      return Done;
    Done += static_cast<std::size_t>(N);
  }
  return Done;
}

bool writeFull(int Fd, const char *Buf, std::size_t Len) {
  std::size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::write(Fd, Buf + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<std::size_t>(N);
  }
  return true;
}

void setErr(std::string *Err, const std::string &What) {
  if (Err)
    *Err = What;
}

} // namespace

FrameStatus cta::serve::readFrame(int Fd, std::string &Payload,
                                  std::string *Err) {
  unsigned char Header[4];
  std::size_t N = readFull(Fd, reinterpret_cast<char *>(Header), 4);
  if (N == 0)
    return FrameStatus::Eof;
  if (N < 4) {
    setErr(Err, "truncated frame header");
    return FrameStatus::Error;
  }
  std::uint32_t Len = (std::uint32_t(Header[0]) << 24) |
                      (std::uint32_t(Header[1]) << 16) |
                      (std::uint32_t(Header[2]) << 8) |
                      std::uint32_t(Header[3]);
  if (Len > MaxFrameBytes) {
    setErr(Err, "frame of " + std::to_string(Len) + " bytes exceeds limit");
    return FrameStatus::Error;
  }
  Payload.resize(Len);
  if (readFull(Fd, Payload.data(), Len) != Len) {
    setErr(Err, "truncated frame payload");
    return FrameStatus::Error;
  }
  return FrameStatus::Ok;
}

bool cta::serve::writeFrame(int Fd, const std::string &Payload,
                            std::string *Err) {
  if (Payload.size() > MaxFrameBytes) {
    setErr(Err, "payload exceeds frame limit");
    return false;
  }
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  unsigned char Header[4] = {static_cast<unsigned char>(Len >> 24),
                             static_cast<unsigned char>(Len >> 16),
                             static_cast<unsigned char>(Len >> 8),
                             static_cast<unsigned char>(Len)};
  if (!writeFull(Fd, reinterpret_cast<char *>(Header), 4) ||
      !writeFull(Fd, Payload.data(), Payload.size())) {
    setErr(Err, std::strerror(errno));
    return false;
  }
  return true;
}

int cta::serve::connectToDaemon(const std::string &Path, std::string *Err) {
  sockaddr_un Addr = {};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    setErr(Err, "socket path too long: " + Path);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0) {
    setErr(Err, std::string("socket: ") + std::strerror(errno));
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    setErr(Err, "connect " + Path + ": " + std::strerror(errno));
    ::close(Fd);
    return -1;
  }
  return Fd;
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

namespace {

bool badRequest(RequestError &Err, const std::string &Message) {
  Err.Kind = "bad_request";
  Err.Message = Message;
  return false;
}

/// Fetches an optional string field; type errors are hard failures.
bool getString(const JsonValue &Req, const char *Key, std::string &Out,
               RequestError &Err) {
  const JsonValue *V = Req.get(Key);
  if (!V)
    return true;
  if (V->K != JsonValue::Kind::String)
    return badRequest(Err, std::string("field \"") + Key +
                               "\" must be a string");
  Out = V->Str;
  return true;
}

bool getNumber(const JsonValue &Req, const char *Key,
               std::optional<double> &Out, RequestError &Err) {
  const JsonValue *V = Req.get(Key);
  if (!V)
    return true;
  if (V->K != JsonValue::Kind::Number)
    return badRequest(Err, std::string("field \"") + Key +
                               "\" must be a number");
  Out = V->Num;
  return true;
}

} // namespace

std::optional<ServeRequest>
cta::serve::parseServeRequest(const std::string &Payload, RequestError &Err) {
  std::string JsonErr;
  std::optional<JsonValue> Doc = parseJson(Payload, &JsonErr);
  if (!Doc) {
    badRequest(Err, "malformed JSON: " + JsonErr);
    return std::nullopt;
  }
  return parseServeRequest(*Doc, Err);
}

std::optional<ServeRequest>
cta::serve::parseServeRequest(const JsonValue &DocRef, RequestError &Err) {
  const JsonValue *Doc = &DocRef;
  if (Doc->K != JsonValue::Kind::Object) {
    badRequest(Err, "request must be a JSON object");
    return std::nullopt;
  }

  ServeRequest Req;
  std::string Schema;
  if (!getString(*Doc, "schema", Schema, Err))
    return std::nullopt;
  if (Schema != RequestSchema) {
    badRequest(Err, "expected schema \"" + std::string(RequestSchema) +
                        "\", got \"" + Schema + "\"");
    return std::nullopt;
  }
  if (!getString(*Doc, "id", Req.Id, Err) ||
      !getString(*Doc, "client", Req.Client, Err) ||
      !getString(*Doc, "workload", Req.Workload, Err) ||
      !getString(*Doc, "dsl", Req.Dsl, Err) ||
      !getString(*Doc, "dsl_name", Req.DslName, Err) ||
      !getString(*Doc, "machine", Req.Machine, Err) ||
      !getString(*Doc, "topo", Req.Topo, Err) ||
      !getString(*Doc, "runs_on", Req.RunsOn, Err) ||
      !getString(*Doc, "runs_on_topo", Req.RunsOnTopo, Err) ||
      !getString(*Doc, "strategy", Req.Strategy, Err))
    return std::nullopt;

  if (Req.Workload.empty() == Req.Dsl.empty()) {
    badRequest(Err, "exactly one of \"workload\" and \"dsl\" is required");
    return std::nullopt;
  }
  if (Req.Machine.empty() == Req.Topo.empty()) {
    badRequest(Err, "exactly one of \"machine\" and \"topo\" is required");
    return std::nullopt;
  }
  if (!Req.RunsOn.empty() && !Req.RunsOnTopo.empty()) {
    badRequest(Err, "at most one of \"runs_on\" and \"runs_on_topo\"");
    return std::nullopt;
  }

  std::optional<double> Scale, Alpha, Beta, BlockSize, AdaptInterval;
  if (!getNumber(*Doc, "scale", Scale, Err) ||
      !getNumber(*Doc, "alpha", Alpha, Err) ||
      !getNumber(*Doc, "beta", Beta, Err) ||
      !getNumber(*Doc, "block_size", BlockSize, Err) ||
      !getNumber(*Doc, "adapt_interval", AdaptInterval, Err))
    return std::nullopt;
  if (Scale) {
    if (!(*Scale > 0.0)) {
      badRequest(Err, "\"scale\" must be positive");
      return std::nullopt;
    }
    Req.Scale = *Scale;
  }
  Req.Alpha = Alpha;
  Req.Beta = Beta;
  if (BlockSize) {
    if (*BlockSize < 0 || *BlockSize != std::floor(*BlockSize)) {
      badRequest(Err, "\"block_size\" must be a non-negative integer");
      return std::nullopt;
    }
    Req.BlockSize = static_cast<std::uint64_t>(*BlockSize);
  }
  if (AdaptInterval) {
    if (*AdaptInterval < 1 || *AdaptInterval != std::floor(*AdaptInterval)) {
      badRequest(Err, "\"adapt_interval\" must be a positive integer");
      return std::nullopt;
    }
    Req.AdaptInterval = static_cast<unsigned>(*AdaptInterval);
  }
  return Req;
}

//===----------------------------------------------------------------------===//
// Task construction
//===----------------------------------------------------------------------===//

namespace {

bool isPresetName(const std::string &Name) {
  for (const char *P :
       {"harpertown", "nehalem", "dunnington", "arch-i", "arch-ii"})
    if (Name == P)
      return true;
  return false;
}

bool isBuiltinWorkload(const std::string &Name) {
  for (const std::string &W : workloadNames())
    if (W == Name)
      return true;
  return false;
}

std::optional<Strategy> parseStrategyName(std::string Name) {
  std::transform(Name.begin(), Name.end(), Name.begin(),
                 [](unsigned char C) { return std::tolower(C); });
  if (Name == "base" || Name == "os-default")
    return Strategy::Base;
  if (Name == "base+" || Name == "baseplus")
    return Strategy::BasePlus;
  if (Name == "local")
    return Strategy::Local;
  if (Name == "topology-aware" || Name == "topologyaware" || Name == "cta")
    return Strategy::TopologyAware;
  if (Name == "combined")
    return Strategy::Combined;
  if (Name == "adaptive-greedy" || Name == "adaptivegreedy")
    return Strategy::AdaptiveGreedy;
  if (Name == "adaptive-mw" || Name == "adaptivemw")
    return Strategy::AdaptiveMW;
  return std::nullopt;
}

/// Resolves one machine field pair (preset name or inline .topo text).
std::optional<CacheTopology> resolveMachine(const std::string &Preset,
                                            const std::string &TopoText,
                                            const std::string &TopoName,
                                            double Scale, RequestError &Err) {
  if (!Preset.empty()) {
    if (!isPresetName(Preset)) {
      badRequest(Err, "unknown machine preset \"" + Preset + "\"");
      return std::nullopt;
    }
    return makePresetByName(Preset).scaledCapacity(Scale);
  }
  std::string ParseErr;
  std::optional<CacheTopology> Topo =
      parseTopology(TopoName, TopoText, &ParseErr);
  if (!Topo) {
    Err.Kind = "parse";
    Err.Message = ParseErr;
    return std::nullopt;
  }
  return Topo->scaledCapacity(Scale);
}

} // namespace

std::optional<RunTask> cta::serve::buildRunTask(const ServeRequest &Req,
                                                RequestError &Err) {
  std::optional<Strategy> Strat = parseStrategyName(Req.Strategy);
  if (!Strat) {
    badRequest(Err, "unknown strategy \"" + Req.Strategy + "\"");
    return std::nullopt;
  }

  // Workload: builtin name, or inline DSL parsed with the CLI's parser so
  // diagnostics carry the same file:line:col caret rendering. The source
  // hash feeds the fingerprint exactly as `cta run file.cta` computes it.
  Program Prog;
  std::uint64_t SourceHash = 0;
  if (!Req.Workload.empty()) {
    if (!isBuiltinWorkload(Req.Workload)) {
      badRequest(Err, "unknown workload \"" + Req.Workload + "\"");
      return std::nullopt;
    }
    Prog = makeWorkload(Req.Workload);
  } else {
    frontend::ParseOutcome Outcome =
        frontend::parseProgramText(Req.Dsl, Req.DslName);
    if (!Outcome.ok()) {
      Err.Kind = "parse";
      Err.Message = Outcome.Diagnostic;
      return std::nullopt;
    }
    Prog = std::move(*Outcome.Prog);
    HashBuilder H;
    H.add(Req.Dsl);
    SourceHash = H.hash();
  }

  std::optional<CacheTopology> Machine =
      resolveMachine(Req.Machine, Req.Topo, "<topo>", Req.Scale, Err);
  if (!Machine)
    return std::nullopt;

  std::optional<CacheTopology> RunsOn;
  if (!Req.RunsOn.empty() || !Req.RunsOnTopo.empty()) {
    RunsOn = resolveMachine(Req.RunsOn, Req.RunsOnTopo, "<runs_on_topo>",
                            Req.Scale, Err);
    if (!RunsOn)
      return std::nullopt;
  }

  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();
  if (Req.Alpha)
    Opts.Alpha = *Req.Alpha;
  if (Req.Beta)
    Opts.Beta = *Req.Beta;
  if (Req.BlockSize)
    Opts.BlockSizeBytes = *Req.BlockSize;
  if (Req.AdaptInterval)
    Opts.AdaptInterval = *Req.AdaptInterval;

  std::string MachineName =
      !Req.Machine.empty() ? Req.Machine : Machine->name();
  RunTask Task =
      makeRunTask(std::move(Prog), std::move(*Machine), *Strat, Opts, "");
  Task.Label =
      Task.Prog.Name + "/" + MachineName + "/" + strategyName(*Strat);
  Task.RunsOn = std::move(RunsOn);
  Task.SourceHash = SourceHash;
  return Task;
}

std::string cta::serve::taskKey(const ServeRequest &Req) {
  std::string Key;
  // A length before every string and a presence byte before every
  // optional number, so requests that differ never share a key.
  auto addBits = [&Key](std::uint64_t Bits) {
    Key.append(reinterpret_cast<const char *>(&Bits), sizeof(Bits));
  };
  auto addString = [&](const std::string &S) {
    addBits(S.size());
    Key += S;
  };
  auto addDouble = [&](double V) {
    std::uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    addBits(Bits);
  };
  auto addOptional = [&Key](const auto &V, auto Add) {
    Key += V ? '\1' : '\0';
    if (V)
      Add(*V);
  };
  for (const std::string *S :
       {&Req.Workload, &Req.Dsl, &Req.Machine, &Req.Topo, &Req.RunsOn,
        &Req.RunsOnTopo, &Req.Strategy})
    addString(*S);
  addDouble(Req.Scale);
  addOptional(Req.Alpha, addDouble);
  addOptional(Req.Beta, addDouble);
  addOptional(Req.BlockSize, addBits);
  addOptional(Req.AdaptInterval, addBits);
  return Key;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

std::string cta::serve::renderRunJson(const obs::RunArtifact &Run) {
  obs::JsonWriter W;
  Run.writeJson(W);
  return W.str();
}

std::string cta::serve::renderOkResponse(const std::string &Id,
                                         const char *CacheStatus,
                                         double QueueSeconds,
                                         double ServiceSeconds,
                                         const obs::RunArtifact &Run) {
  return renderOkResponse(Id, CacheStatus, QueueSeconds, ServiceSeconds,
                          renderRunJson(Run));
}

std::string cta::serve::renderOkResponse(const std::string &Id,
                                         const char *CacheStatus,
                                         double QueueSeconds,
                                         double ServiceSeconds,
                                         std::string_view RunJson) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(ResponseSchema);
  W.key("id");
  W.value(Id);
  W.key("status");
  W.value("ok");
  W.key("cache_status");
  W.value(CacheStatus);
  W.key("queue_seconds");
  W.value(QueueSeconds);
  W.key("service_seconds");
  W.value(ServiceSeconds);
  W.key("run");
  // The writer holds the head up to `"run":`; the run object and the
  // closing brace follow as bytes.
  std::string Out;
  Out.reserve(W.str().size() + RunJson.size() + 1);
  Out += W.str();
  Out += RunJson;
  Out += '}';
  return Out;
}

std::string cta::serve::renderErrorResponse(const std::string &Id,
                                            const std::string &Kind,
                                            const std::string &Message) {
  obs::JsonWriter W;
  W.beginObject();
  W.key("schema");
  W.value(ResponseSchema);
  W.key("id");
  W.value(Id);
  W.key("status");
  W.value("error");
  W.key("error");
  W.beginObject();
  W.key("kind");
  W.value(Kind);
  W.key("message");
  W.value(Message);
  W.endObject();
  W.endObject();
  return W.str();
}
