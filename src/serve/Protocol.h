//===- serve/Protocol.h - cta serve wire protocol --------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cta serve` wire protocol: length-prefixed JSON frames over a
/// Unix-domain stream socket.
///
/// Framing: every message is a 4-byte big-endian payload length followed
/// by that many bytes of UTF-8 JSON. Frames above MaxFrameBytes are a
/// protocol error (the peer is hostile or corrupt; the connection drops).
///
/// Request (schema "cta-serve-req-v1"):
///   { "schema": "cta-serve-req-v1",
///     "id": "r17",                  // optional, echoed verbatim
///     "client": "loadgen-3",        // optional fairness key
///     "workload": "cg",             // builtin name, XOR "dsl"
///     "dsl": "array A[256][256]...",// inline DSL source, XOR "workload"
///     "dsl_name": "remote.cta",     // optional diagnostic filename
///     "machine": "dunnington",      // preset name, XOR "topo"
///     "topo": "machine m ...",      // inline .topo text, XOR "machine"
///     "runs_on": "nehalem",         // optional cross-machine preset...
///     "runs_on_topo": "...",        // ...or inline .topo text
///     "strategy": "topology-aware", // optional, default topology-aware
///     "scale": 0.03125,             // optional, default 1/32
///     "alpha": 0.5, "beta": 0.5,    // optional (combined strategy)
///     "block_size": 2048,           // optional, 0 = auto-select
///     "adapt_interval": 4 }         // optional (adaptive strategies)
///
/// Response (schema "cta-serve-resp-v1"):
///   { "schema": "cta-serve-resp-v1", "id": "r17", "status": "ok",
///     "cache_status": "warm",       // warm|coalesced|hit|miss|disabled
///     "queue_seconds": 1.2e-4, "service_seconds": 3.1e-3,
///     "run": { cta-run-artifact-v1 } }
/// or:
///   { "schema": "cta-serve-resp-v1", "id": "r17", "status": "error",
///     "error": { "kind": "parse",   // bad_request|parse|overloaded|shutdown
///                "message": "remote.cta:3:7: error: ..." } }
///
/// Errors are always in-band: a malformed request (including DSL or .topo
/// text that fails to parse, reported with the same file:line:col caret
/// diagnostics the CLI prints) produces an error response on the same
/// connection, never a dropped connection or a dead daemon.
///
/// buildRunTask() is the single translation from a validated request to
/// the RunTask the Service executes. `cta run` resolves its command line
/// through the same workload/machine/options paths, so a cold serve
/// request and the equivalent CLI invocation produce the same fingerprint
/// and byte-identical deterministic results — tests hold this equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_PROTOCOL_H
#define CTA_SERVE_PROTOCOL_H

#include "exec/RunTask.h"
#include "obs/RunArtifact.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace cta::serve {

/// Frames above this are a protocol error. Large enough for any real
/// workload source or response artifact, small enough that a corrupt
/// length prefix cannot make the daemon allocate gigabytes.
constexpr std::uint32_t MaxFrameBytes = 16u << 20;

/// Schema identifiers, kept in one place so client/server/tests agree.
inline constexpr const char *RequestSchema = "cta-serve-req-v1";
inline constexpr const char *ResponseSchema = "cta-serve-resp-v1";
inline constexpr const char *BenchSchema = "cta-serve-bench-v1";
/// Stats poll: a client sends { "schema": "cta-serve-stats-v1" } (with an
/// optional "id") on the same socket and receives one
/// obs::TelemetrySnapshot::toJson() document — the frame `cta top` polls.
inline constexpr const char *StatsSchema = "cta-serve-stats-v1";

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

enum class FrameStatus {
  Ok,   ///< One complete payload read.
  Eof,  ///< Clean end of stream before any byte of a new frame.
  Error ///< Short read, oversized frame, or I/O error; see Err.
};

/// Reads one length-prefixed frame from \p Fd (blocking, EINTR-safe).
FrameStatus readFrame(int Fd, std::string &Payload, std::string *Err);

/// Writes one length-prefixed frame to \p Fd. Returns false on I/O error
/// (including a payload above MaxFrameBytes, which is a caller bug).
bool writeFrame(int Fd, const std::string &Payload, std::string *Err);

/// Connects a close-on-exec stream socket to the daemon listening on the
/// Unix socket \p Path. Returns its fd, or -1 with \p Err set.
int connectToDaemon(const std::string &Path, std::string *Err);

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

/// A validated cta-serve-req-v1, with defaults applied.
struct ServeRequest {
  std::string Id;
  std::string Client = "anon";
  std::string Workload;          // builtin name; empty when Dsl is set
  std::string Dsl;               // inline DSL source; empty when Workload set
  std::string DslName = "<request>"; // diagnostic filename for Dsl
  std::string Machine;           // preset name; empty when Topo is set
  std::string Topo;              // inline .topo text; empty when Machine set
  std::string RunsOn;            // optional cross-machine preset
  std::string RunsOnTopo;        // optional cross-machine inline .topo
  std::string Strategy = "topology-aware";
  double Scale = 1.0 / 32;
  std::optional<double> Alpha;
  std::optional<double> Beta;
  std::optional<std::uint64_t> BlockSize;
  std::optional<unsigned> AdaptInterval; // adaptive strategies only
};

/// An in-band request failure.
struct RequestError {
  std::string Kind;    // "bad_request" | "parse"
  std::string Message; // positioned caret diagnostic for Kind == "parse"
};

/// Parses and validates one request payload. On failure returns
/// std::nullopt with \p Err filled ("bad_request" for malformed JSON or
/// schema violations — the JSON parse error includes the byte offset).
std::optional<ServeRequest> parseServeRequest(const std::string &Payload,
                                              RequestError &Err);

struct JsonValue;

/// Same validation over an already-parsed document — the Server parses
/// each frame once to route stats polls, then hands the document here, so
/// request frames are never parsed twice.
std::optional<ServeRequest> parseServeRequest(const JsonValue &Doc,
                                              RequestError &Err);

/// Resolves a validated request into the task the Service executes:
/// parses inline DSL/.topo text (positioned diagnostics on failure),
/// resolves presets and the strategy, applies scale and option overrides
/// on top of the experiment defaults. Deterministic: equal requests build
/// fingerprint-equal tasks.
std::optional<RunTask> buildRunTask(const ServeRequest &Req,
                                    RequestError &Err);

/// The bytes of every request field that shapes a successful answer's run
/// object: each string and each number's bit pattern, so 0.03125 and
/// 3.125e-2 give one key. Id and Client name the caller, and DslName only
/// labels parse diagnostics, so none of them is part of it. Requests with
/// equal keys build equal tasks under equal labels.
std::string taskKey(const ServeRequest &Req);

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

/// Renders an ok response. \p CacheStatus is the waiter-view tier name
/// ("warm"/"coalesced"/"hit"/"miss"/"disabled"); \p Run is spliced under
/// "run" as a standalone cta-run-artifact-v1 object.
std::string renderOkResponse(const std::string &Id, const char *CacheStatus,
                             double QueueSeconds, double ServiceSeconds,
                             const obs::RunArtifact &Run);

/// The same response around \p RunJson, a run object as renderRunJson
/// wrote it. Every ok response's head (schema, id, status, cache_status,
/// queue and service seconds) is written here.
std::string renderOkResponse(const std::string &Id, const char *CacheStatus,
                             double QueueSeconds, double ServiceSeconds,
                             std::string_view RunJson);

/// \p Run as the standalone cta-run-artifact-v1 object an ok response
/// embeds.
std::string renderRunJson(const obs::RunArtifact &Run);

/// Renders an error response ("bad_request" | "parse" | "overloaded" |
/// "shutdown").
std::string renderErrorResponse(const std::string &Id,
                                const std::string &Kind,
                                const std::string &Message);

} // namespace cta::serve

#endif // CTA_SERVE_PROTOCOL_H
