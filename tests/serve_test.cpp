//===- tests/serve_test.cpp - serve/ subsystem tests ----------------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
// Covers the mapping service stack bottom-up: the JSON reader, the frame
// codec, request validation and task building (including the cold-serve ==
// `cta run` equivalence the protocol promises), the Service tier ladder and
// its single-flight guarantee under thread hammering, admission control
// fairness and load shedding, cooperative shutdown, and an in-process
// end-to-end daemon over a real Unix socket.
//
//===----------------------------------------------------------------------===//

#include "serve/Admission.h"
#include "serve/Client.h"
#include "serve/Json.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Service.h"
#include "serve/Shutdown.h"

#include "driver/Experiment.h"
#include "exec/RunCache.h"
#include "obs/Json.h"
#include "sim/TraceLog.h"
#include "support/Hashing.h"
#include "topo/Presets.h"
#include "workloads/Suite.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace cta;
using namespace cta::serve;

namespace {

//===----------------------------------------------------------------------===//
// JSON reader
//===----------------------------------------------------------------------===//

TEST(ServeJsonTest, ParsesScalarsAndContainers) {
  std::optional<JsonValue> V =
      parseJson("{\"a\": 1, \"b\": [true, null, \"x\"], \"c\": -2.5}");
  ASSERT_TRUE(V.has_value());
  ASSERT_TRUE(V->isObject());
  EXPECT_EQ(V->get("a")->asNumber(), 1.0);
  ASSERT_TRUE(V->get("b")->isArray());
  EXPECT_TRUE(V->get("b")->Arr[0].B);
  EXPECT_TRUE(V->get("b")->Arr[1].isNull());
  EXPECT_EQ(V->get("b")->Arr[2].Str, "x");
  EXPECT_EQ(V->get("c")->asNumber(), -2.5);
  EXPECT_EQ(V->get("missing"), nullptr);
}

TEST(ServeJsonTest, DumpMatchesObsFormatting) {
  // Integral doubles print as integers, like obs/JsonWriter, so documents
  // survive a parse + dump round-trip byte-identically.
  std::optional<JsonValue> V =
      parseJson("{\"i\":3,\"d\":0.5,\"s\":\"a\\nb\",\"e\":{}}");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->dump(), "{\"i\":3,\"d\":0.5,\"s\":\"a\\nb\",\"e\":{}}");
}

TEST(ServeJsonTest, UnicodeEscapesDecodeToUtf8) {
  std::optional<JsonValue> V = parseJson("\"\\u00e9\\u0041\"");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Str, "\xc3\xa9""A");
}

TEST(ServeJsonTest, ErrorsCarryByteOffsets) {
  std::string Err;
  EXPECT_FALSE(parseJson("{\"a\": }", &Err).has_value());
  EXPECT_NE(Err.find("offset 6"), std::string::npos) << Err;
  EXPECT_FALSE(parseJson("[1, 2] trailing", &Err).has_value());
  EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
  EXPECT_FALSE(parseJson("", &Err).has_value());
}

TEST(ServeJsonTest, DepthLimitStopsRecursion) {
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  std::string Err;
  EXPECT_FALSE(parseJson(Deep, &Err).has_value());
  EXPECT_NE(Err.find("nesting"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

class SocketPairTest : public ::testing::Test {
protected:
  int Fds[2] = {-1, -1};
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
  }
  void TearDown() override {
    for (int Fd : Fds)
      if (Fd != -1)
        ::close(Fd);
  }
};

TEST_F(SocketPairTest, FramesRoundTrip) {
  std::string Err;
  ASSERT_TRUE(writeFrame(Fds[0], "hello", &Err)) << Err;
  ASSERT_TRUE(writeFrame(Fds[0], "", &Err)) << Err; // empty payload is legal
  std::string Payload;
  ASSERT_EQ(readFrame(Fds[1], Payload, &Err), FrameStatus::Ok) << Err;
  EXPECT_EQ(Payload, "hello");
  ASSERT_EQ(readFrame(Fds[1], Payload, &Err), FrameStatus::Ok) << Err;
  EXPECT_EQ(Payload, "");
}

TEST_F(SocketPairTest, CleanCloseIsEof) {
  ::close(Fds[0]);
  Fds[0] = -1;
  std::string Payload, Err;
  EXPECT_EQ(readFrame(Fds[1], Payload, &Err), FrameStatus::Eof);
}

TEST_F(SocketPairTest, OversizedLengthPrefixIsAnError) {
  // 0xFFFFFFFF exceeds MaxFrameBytes; the reader must refuse before
  // allocating anything.
  const unsigned char Huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(Fds[0], Huge, 4), 4);
  std::string Payload, Err;
  EXPECT_EQ(readFrame(Fds[1], Payload, &Err), FrameStatus::Error);
  EXPECT_NE(Err.find("frame"), std::string::npos) << Err;
}

TEST_F(SocketPairTest, TruncatedFrameIsAnError) {
  const unsigned char Header[4] = {0, 0, 0, 10};
  ASSERT_EQ(::write(Fds[0], Header, 4), 4);
  ASSERT_EQ(::write(Fds[0], "abc", 3), 3);
  ::close(Fds[0]);
  Fds[0] = -1;
  std::string Payload, Err;
  EXPECT_EQ(readFrame(Fds[1], Payload, &Err), FrameStatus::Error);
}

//===----------------------------------------------------------------------===//
// Request parsing and task building
//===----------------------------------------------------------------------===//

std::string minimalRequest(const std::string &Extra = "") {
  return "{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\","
         "\"machine\":\"dunnington\"" +
         Extra + "}";
}

TEST(ServeRequestTest, MinimalRequestGetsDefaults) {
  RequestError Err;
  std::optional<ServeRequest> Req = parseServeRequest(minimalRequest(), Err);
  ASSERT_TRUE(Req.has_value()) << Err.Message;
  EXPECT_EQ(Req->Workload, "cg");
  EXPECT_EQ(Req->Machine, "dunnington");
  EXPECT_EQ(Req->Strategy, "topology-aware");
  EXPECT_EQ(Req->Client, "anon");
  EXPECT_DOUBLE_EQ(Req->Scale, 1.0 / 32);
  EXPECT_FALSE(Req->Alpha.has_value());
}

TEST(ServeRequestTest, FieldsParse) {
  RequestError Err;
  std::optional<ServeRequest> Req = parseServeRequest(
      minimalRequest(",\"id\":\"r1\",\"client\":\"c\",\"strategy\":\"base\","
                     "\"scale\":0.5,\"alpha\":0.25,\"beta\":0.75,"
                     "\"block_size\":2048,\"runs_on\":\"nehalem\""),
      Err);
  ASSERT_TRUE(Req.has_value()) << Err.Message;
  EXPECT_EQ(Req->Id, "r1");
  EXPECT_EQ(Req->Client, "c");
  EXPECT_EQ(Req->Strategy, "base");
  EXPECT_DOUBLE_EQ(Req->Scale, 0.5);
  EXPECT_DOUBLE_EQ(*Req->Alpha, 0.25);
  EXPECT_DOUBLE_EQ(*Req->Beta, 0.75);
  EXPECT_EQ(*Req->BlockSize, 2048u);
  EXPECT_EQ(Req->RunsOn, "nehalem");
}

void expectBadRequest(const std::string &Payload, const char *Needle) {
  RequestError Err;
  EXPECT_FALSE(parseServeRequest(Payload, Err).has_value()) << Payload;
  EXPECT_EQ(Err.Kind, "bad_request");
  EXPECT_NE(Err.Message.find(Needle), std::string::npos)
      << Err.Message << " (wanted '" << Needle << "')";
}

TEST(ServeRequestTest, MalformedRequestsAreTypedErrors) {
  expectBadRequest("not json at all", "offset");
  expectBadRequest("[1,2,3]", "object");
  expectBadRequest("{\"schema\":\"wrong-v9\"}", "schema");
  // workload XOR dsl, machine XOR topo.
  expectBadRequest("{\"schema\":\"cta-serve-req-v1\","
                   "\"machine\":\"dunnington\"}",
                   "workload");
  expectBadRequest("{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\","
                   "\"dsl\":\"x\",\"machine\":\"dunnington\"}",
                   "workload");
  expectBadRequest("{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\"}",
                   "machine");
  expectBadRequest(minimalRequest(",\"topo\":\"machine m\""), "machine");
  expectBadRequest(minimalRequest(",\"scale\":-1"), "scale");
  expectBadRequest(minimalRequest(",\"scale\":\"big\""), "scale");
  expectBadRequest(minimalRequest(",\"block_size\":0.5"), "block_size");
  expectBadRequest(minimalRequest(",\"runs_on\":\"a\",\"runs_on_topo\":\"b\""),
                   "runs_on");
}

TEST(ServeRequestTest, BuildRejectsUnknownNames) {
  RequestError Err;
  ServeRequest Req;
  Req.Workload = "no-such-workload";
  Req.Machine = "dunnington";
  EXPECT_FALSE(buildRunTask(Req, Err).has_value());
  EXPECT_EQ(Err.Kind, "bad_request");
  EXPECT_NE(Err.Message.find("no-such-workload"), std::string::npos);

  Req.Workload = "cg";
  Req.Machine = "no-such-machine";
  EXPECT_FALSE(buildRunTask(Req, Err).has_value());
  EXPECT_NE(Err.Message.find("no-such-machine"), std::string::npos);

  Req.Machine = "dunnington";
  Req.Strategy = "no-such-strategy";
  EXPECT_FALSE(buildRunTask(Req, Err).has_value());
  EXPECT_NE(Err.Message.find("no-such-strategy"), std::string::npos);
}

TEST(ServeRequestTest, DslErrorsArePositionedDiagnostics) {
  RequestError Err;
  ServeRequest Req;
  Req.Dsl = "array A[16][16] of f64\nnest bogus {\n";
  Req.DslName = "remote.cta";
  Req.Machine = "dunnington";
  EXPECT_FALSE(buildRunTask(Req, Err).has_value());
  EXPECT_EQ(Err.Kind, "parse");
  // The same file:line:col caret rendering the CLI prints, under the
  // request's advertised filename.
  EXPECT_NE(Err.Message.find("remote.cta:"), std::string::npos)
      << Err.Message;
  EXPECT_NE(Err.Message.find("error:"), std::string::npos) << Err.Message;
}

TEST(ServeRequestTest, InlineTopoTextResolves) {
  // A request may carry the machine as inline .topo text; build it from
  // the same text the topo/ parser accepts and check the core count.
  RequestError Err;
  ServeRequest Req;
  Req.Workload = "cg";
  Req.Topo = "mem:50 l2:64K:8:10 { core core }";
  Req.Scale = 1.0;
  std::optional<RunTask> Task = buildRunTask(Req, Err);
  ASSERT_TRUE(Task.has_value()) << Err.Message;
  EXPECT_EQ(Task->Machine.numCores(), 2u);

  Req.Topo = "mem:abc l1:2K:4:3";
  EXPECT_FALSE(buildRunTask(Req, Err).has_value());
  EXPECT_EQ(Err.Kind, "parse");
  EXPECT_NE(Err.Message.find("error:"), std::string::npos) << Err.Message;
}

TEST(ServeRequestTest, EqualRequestsBuildFingerprintEqualTasks) {
  RequestError Err;
  std::optional<ServeRequest> A =
      parseServeRequest(minimalRequest(",\"id\":\"a\""), Err);
  std::optional<ServeRequest> B =
      parseServeRequest(minimalRequest(",\"id\":\"b\""), Err);
  ASSERT_TRUE(A && B);
  std::optional<RunTask> TA = buildRunTask(*A, Err);
  std::optional<RunTask> TB = buildRunTask(*B, Err);
  ASSERT_TRUE(TA && TB);
  EXPECT_EQ(Service::fingerprint(*TA), Service::fingerprint(*TB));

  std::optional<ServeRequest> C =
      parseServeRequest(minimalRequest(",\"alpha\":0.625"), Err);
  ASSERT_TRUE(C.has_value());
  std::optional<RunTask> TC = buildRunTask(*C, Err);
  ASSERT_TRUE(TC.has_value());
  EXPECT_NE(Service::fingerprint(*TA), Service::fingerprint(*TC));
}

/// The task `cta run cg --machine dunnington` builds, assembled the same
/// way tools/cta does it.
RunTask cliEquivalentTask() {
  return makeRunTask(makeWorkload("cg"),
                     makeDunnington().scaledCapacity(1.0 / 32),
                     Strategy::TopologyAware,
                     ExperimentConfig::makeDefaultOptions(),
                     "cg/dunnington/topology-aware");
}

TEST(ServeRequestTest, RequestTaskMatchesCliTaskFingerprint) {
  RequestError Err;
  std::optional<ServeRequest> Req = parseServeRequest(minimalRequest(), Err);
  ASSERT_TRUE(Req.has_value());
  std::optional<RunTask> Task = buildRunTask(*Req, Err);
  ASSERT_TRUE(Task.has_value()) << Err.Message;
  EXPECT_EQ(Service::fingerprint(*Task),
            Service::fingerprint(cliEquivalentTask()));
}

TEST(ServeRequestTest, TaskKeyNamesTheTaskNotTheCaller) {
  auto keyOf = [](const std::string &Payload) {
    RequestError Err;
    std::optional<ServeRequest> Req = parseServeRequest(Payload, Err);
    EXPECT_TRUE(Req.has_value()) << Err.Message;
    return Req ? taskKey(*Req) : std::string();
  };
  const std::string Base = keyOf(minimalRequest());
  // Id, client and dsl_name name the caller or its diagnostics.
  EXPECT_EQ(keyOf(minimalRequest(",\"id\":\"a\",\"client\":\"c\","
                                 "\"dsl_name\":\"x.cta\"")),
            Base);
  // Numbers key by value: the default scale written two ways.
  EXPECT_EQ(keyOf(minimalRequest(",\"scale\":0.03125")), Base);
  EXPECT_EQ(keyOf(minimalRequest(",\"scale\":3.125e-2")), Base);
  EXPECT_EQ(keyOf(minimalRequest(",\"alpha\":0.625")),
            keyOf(minimalRequest(",\"alpha\":6.25e-1")));
  // Every other field is part of the key, and an absent option differs
  // from a present one.
  for (const char *Extra :
       {",\"alpha\":0.625", ",\"alpha\":-0.0", ",\"alpha\":0",
        ",\"beta\":0.625", ",\"scale\":0.5", ",\"block_size\":2048",
        ",\"adapt_interval\":4", ",\"strategy\":\"base\"",
        ",\"runs_on\":\"nehalem\"", ",\"runs_on_topo\":\"mem:50\""})
    EXPECT_NE(keyOf(minimalRequest(Extra)), Base) << Extra;
  EXPECT_NE(keyOf(minimalRequest(",\"alpha\":-0.0")),
            keyOf(minimalRequest(",\"alpha\":0")));
  EXPECT_NE(keyOf("{\"schema\":\"cta-serve-req-v1\",\"workload\":\"sp\","
                  "\"machine\":\"dunnington\"}"),
            Base);
  EXPECT_NE(keyOf("{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\","
                  "\"machine\":\"nehalem\"}"),
            Base);
}

//===----------------------------------------------------------------------===//
// Service: tier ladder, single-flight, equivalence
//===----------------------------------------------------------------------===//

class TempDirTest : public ::testing::Test {
protected:
  std::string Dir;
  void SetUp() override {
    Dir = (std::filesystem::temp_directory_path() /
           ("cta-serve-test-" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name()))
              .string();
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }
};

class ServiceTest : public TempDirTest {};

TEST_F(ServiceTest, TierLadderWarmCoalescedHitMiss) {
  Service::Config Cfg;
  Cfg.Jobs = 2;
  Cfg.CacheDir = Dir;
  RunTask Task = cliEquivalentTask();
  {
    Service Svc(Cfg);
    TaskOutcome First = Svc.runOne(Task);
    EXPECT_EQ(First.Artifact.CacheStatus, "miss");
    EXPECT_EQ(Svc.simulatorInvocations(), 1u);
    // Second time through the same Service: the warm index answers.
    TaskOutcome Again = Svc.runOne(Task);
    EXPECT_EQ(Again.Artifact.CacheStatus, "warm");
    EXPECT_EQ(Svc.simulatorInvocations(), 1u);
    EXPECT_EQ(Svc.warmIndexSize(), 1u);
    EXPECT_EQ(serializeRunResult(Again.Result, 0),
              serializeRunResult(First.Result, 0));
  }
  // A fresh Service has an empty warm index but the same disk cache.
  Service Fresh(Cfg);
  TaskOutcome FromDisk = Fresh.runOne(Task);
  EXPECT_EQ(FromDisk.Artifact.CacheStatus, "hit");
  EXPECT_EQ(Fresh.simulatorInvocations(), 0u);
  // And a disk hit also populates the warm index.
  EXPECT_NE(Fresh.lookupWarm(Service::fingerprint(Task)), nullptr);
}

TEST_F(ServiceTest, ColdServeMatchesCliRunByteForByte) {
  // The acceptance contract: a cold request through the serve path yields
  // a result byte-identical to what `cta run` computes for the same spec.
  RequestError Err;
  std::optional<ServeRequest> Req = parseServeRequest(minimalRequest(), Err);
  ASSERT_TRUE(Req.has_value());
  std::optional<RunTask> ServeTask = buildRunTask(*Req, Err);
  ASSERT_TRUE(ServeTask.has_value()) << Err.Message;

  Service::Config ServeCfg;
  ServeCfg.Jobs = 2;
  ServeCfg.CacheDir = Dir + "/serve-cache";
  Service ServeSvc(ServeCfg);
  TaskOutcome ViaServe = ServeSvc.runOne(*ServeTask);
  EXPECT_EQ(ViaServe.Artifact.CacheStatus, "miss");

  Service::Config CliCfg;
  CliCfg.Jobs = 1;
  CliCfg.CacheDir = Dir + "/cli-cache";
  Service CliSvc(CliCfg);
  TaskOutcome ViaCli = CliSvc.runOne(cliEquivalentTask());

  // deterministicBytes canonicalizes the measured wall-clock fields (the
  // same normalization the Jobs=1 vs Jobs=4 determinism guarantee uses);
  // everything the simulator computed must agree bit for bit.
  EXPECT_EQ(deterministicBytes(ViaServe.Result),
            deterministicBytes(ViaCli.Result));
  EXPECT_EQ(ViaServe.Artifact.Cycles, ViaCli.Artifact.Cycles);
}

TEST(ServiceStressTest, IdenticalFingerprintsSingleFlight) {
  // Many threads hammering one Service with a handful of distinct specs:
  // every waiter gets a result, but each unique fingerprint simulates at
  // most once (coalesced while inflight, warm afterwards). Run under TSan
  // this also shakes races in the index/inflight bookkeeping.
  Service::Config Cfg;
  Cfg.Jobs = 4; // no cache dir: every first-timer would be a true miss
  Service Svc(Cfg);

  Program Prog = makeWorkload("cg");
  CacheTopology Dun = makeDunnington().scaledCapacity(1.0 / 32);
  MappingOptions Opts = ExperimentConfig::makeDefaultOptions();
  std::vector<RunTask> Unique = {
      makeRunTask(Prog, Dun, Strategy::Base, Opts, "base"),
      makeRunTask(Prog, Dun, Strategy::Local, Opts, "local"),
      makeRunTask(Prog, Dun, Strategy::TopologyAware, Opts, "cta")};

  constexpr unsigned NumThreads = 8;
  constexpr unsigned PerThread = 24;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        const RunTask &Task = Unique[(T + I) % Unique.size()];
        TaskOutcome Out = Svc.runOne(Task);
        if (Out.Artifact.Cycles == 0 || Out.Artifact.Label != Task.Label)
          Failures.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Svc.simulatorInvocations(), Unique.size());
}

TEST(ServiceTest2, TracedTasksBypassTheLadder) {
  Service::Config Cfg;
  Cfg.Jobs = 1;
  Service Svc(Cfg);
  RunTask Task = cliEquivalentTask();
  Task.TraceSink = std::make_shared<TraceLog>();
  TaskOutcome First = Svc.runOne(Task);
  EXPECT_EQ(First.Artifact.CacheStatus, "bypass");
  TaskOutcome Second = Svc.runOne(Task);
  EXPECT_EQ(Second.Artifact.CacheStatus, "bypass");
  // Both runs simulated; nothing was indexed.
  EXPECT_EQ(Svc.simulatorInvocations(), 2u);
  EXPECT_EQ(Svc.warmIndexSize(), 0u);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(AdmissionTest, RoundRobinAcrossClients) {
  AdmissionController AC(/*MaxInflight=*/100);
  std::string Order;
  auto push = [&](const std::string &Client) {
    ASSERT_EQ(AC.admit(Client, [&Order, Client] { Order += Client; }),
              AdmissionController::Admit::Admitted);
  };
  for (int I = 0; I != 4; ++I)
    push("a");
  for (int I = 0; I != 2; ++I)
    push("b");
  push("c");

  for (int I = 0; I != 7; ++I) {
    AdmissionController::Item Item = AC.next();
    ASSERT_TRUE(Item);
    Item();
  }
  // One item per client per round, in client order: a's flood cannot
  // starve b or c.
  EXPECT_EQ(Order, "abcabaa");
}

TEST(AdmissionTest, ShedsAboveMaxInflightUntilReleased) {
  AdmissionController AC(/*MaxInflight=*/1);
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Admitted);
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Overloaded);
  EXPECT_EQ(AC.shedCount(), 1u);
  EXPECT_EQ(AC.inflight(), 1u);
  // The slot frees on release, not on dispatch.
  ASSERT_TRUE(AC.next());
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Overloaded);
  AC.release(1);
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Admitted);
}

TEST(AdmissionTest, ZeroInflightShedsEverything) {
  AdmissionController AC(/*MaxInflight=*/0);
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Overloaded);
}

TEST(AdmissionTest, CloseRefusesNewWorkButDrainsQueued) {
  AdmissionController AC(/*MaxInflight=*/10);
  int Ran = 0;
  ASSERT_EQ(AC.admit("x", [&Ran] { ++Ran; }),
            AdmissionController::Admit::Admitted);
  AC.close();
  EXPECT_EQ(AC.admit("x", [] {}), AdmissionController::Admit::Closed);
  AdmissionController::Item Item = AC.next();
  ASSERT_TRUE(Item);
  Item();
  EXPECT_EQ(Ran, 1);
  // Closed and drained: the empty item that tells the dispatcher to exit.
  EXPECT_FALSE(AC.next());
}

//===----------------------------------------------------------------------===//
// Cooperative shutdown
//===----------------------------------------------------------------------===//

TEST(ShutdownTest, SkipOnShutdownSkipsUnstartedWork) {
  installShutdownSignalHandlers();
  resetShutdownForTest();
  Service::Config Cfg;
  Cfg.Jobs = 1;
  Cfg.SkipOnShutdown = true; // the `cta run` configuration
  Service Svc(Cfg);
  RunTask Task = cliEquivalentTask();

  requestShutdown();
  ASSERT_TRUE(shutdownRequested());
  TaskOutcome Out = Svc.runOne(Task);
  EXPECT_EQ(Out.Artifact.CacheStatus, "skipped");
  EXPECT_TRUE(Svc.interrupted());
  EXPECT_EQ(Svc.simulatorInvocations(), 0u);
  resetShutdownForTest();
  EXPECT_FALSE(shutdownRequested());
}

TEST(ShutdownTest, DaemonConfigurationDrainsInsteadOfSkipping) {
  installShutdownSignalHandlers();
  resetShutdownForTest();
  Service::Config Cfg;
  Cfg.Jobs = 1;
  Cfg.SkipOnShutdown = false; // the daemon configuration
  Service Svc(Cfg);

  requestShutdown();
  TaskOutcome Out = Svc.runOne(cliEquivalentTask());
  EXPECT_EQ(Out.Artifact.CacheStatus, "disabled"); // no cache dir, but ran
  EXPECT_FALSE(Svc.interrupted());
  EXPECT_EQ(Svc.simulatorInvocations(), 1u);
  resetShutdownForTest();
}

TEST(ShutdownTest, WarmIndexStillAnswersDuringShutdown) {
  installShutdownSignalHandlers();
  resetShutdownForTest();
  Service::Config Cfg;
  Cfg.Jobs = 1;
  Service Svc(Cfg);
  RunTask Task = cliEquivalentTask();
  Svc.runOne(Task); // populate the warm index
  requestShutdown();
  TaskOutcome Out = Svc.runOne(Task);
  EXPECT_EQ(Out.Artifact.CacheStatus, "warm");
  EXPECT_FALSE(Svc.interrupted());
  resetShutdownForTest();
}

//===----------------------------------------------------------------------===//
// Flag parsing death tests
//===----------------------------------------------------------------------===//

TEST(ServeFlagsDeathTest, StrictNumericParsing) {
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--max-inflight", "8x"}),
               "--max-inflight");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--max-inflight", "-1"}),
               "--max-inflight");
  EXPECT_DEATH(parseServeArgs({}), "--socket");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--bogus"}), "bogus");
  // Removed flags are unknown flags, not silently ignored ones.
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--workers", "2"}),
               "unknown `cta serve` flag '--workers'");
}

TEST(ServeFlagsDeathTest, TelemetryFlagsParseStrictly) {
  // --metrics-port is a 16-bit port: garbage, out-of-range and missing
  // values all abort with the flag named in the diagnostic.
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--metrics-port", "9x"}),
               "--metrics-port");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--metrics-port", "70000"}),
               "--metrics-port");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--metrics-port", "-1"}),
               "--metrics-port");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--metrics-port"}),
               "--metrics-port");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--log-json"}), "--log-json");
}

TEST(ServeFlagsTest, TelemetryFlagsParse) {
  ServerOptions Opts = parseServeArgs(
      {"--socket=/tmp/s", "--metrics-port=9090", "--log-json=/tmp/e.jsonl"});
  EXPECT_TRUE(Opts.MetricsEnabled);
  EXPECT_EQ(Opts.MetricsPort, 9090u);
  EXPECT_EQ(Opts.LogJsonPath, "/tmp/e.jsonl");
  ServerOptions Defaults = parseServeArgs({"--socket=/tmp/s"});
  EXPECT_FALSE(Defaults.MetricsEnabled);
  EXPECT_TRUE(Defaults.LogJsonPath.empty());
  // Port 0 is valid: the kernel assigns and the daemon prints the port.
  ServerOptions Ephemeral =
      parseServeArgs({"--socket=/tmp/s", "--metrics-port=0"});
  EXPECT_TRUE(Ephemeral.MetricsEnabled);
  EXPECT_EQ(Ephemeral.MetricsPort, 0u);
}

TEST(ServeFlagsTest, ExecSettingsReadTheEnvironmentUnderTheFlags) {
  ::setenv("CTA_JOBS", "1", 1);
  ::setenv("CTA_SIM_THREADS", "3", 1);
  ::setenv("CTA_CACHE_DIR", "/tmp/env-cache", 1);
  ServerOptions Env = parseServeArgs({"--socket=/tmp/s"});
  EXPECT_EQ(Env.Jobs, 1u);
  EXPECT_EQ(Env.SimThreads, 3u);
  EXPECT_EQ(Env.CacheDir, "/tmp/env-cache");

  ServerOptions Flags =
      parseServeArgs({"--socket=/tmp/s", "--jobs=2", "--sim-threads", "4",
                      "--cache-dir", "/tmp/flag-cache"});
  EXPECT_EQ(Flags.Jobs, 2u);
  EXPECT_EQ(Flags.SimThreads, 4u);
  EXPECT_EQ(Flags.CacheDir, "/tmp/flag-cache");

  ::unsetenv("CTA_JOBS");
  ::unsetenv("CTA_SIM_THREADS");
  ::unsetenv("CTA_CACHE_DIR");
  ServerOptions Defaults = parseServeArgs({"--socket=/tmp/s"});
  EXPECT_EQ(Defaults.Jobs, 0u);
  EXPECT_EQ(Defaults.SimThreads, 1u);
  EXPECT_TRUE(Defaults.CacheDir.empty());
}

TEST(ServeFlagsDeathTest, OnlyThreeExecTableRowsAreServeFlags) {
  // The table's other rows shape bench output or a single run.
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--no-timing"}),
               "unknown `cta serve` flag '--no-timing'");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--emit-json", "out.json"}),
               "unknown `cta serve` flag '--emit-json'");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--adapt-interval=4"}),
               "unknown `cta serve` flag '--adapt-interval=4'");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--jobs"}),
               "--jobs needs a value");
  EXPECT_DEATH(parseServeArgs({"--socket", "s", "--sim-threads=x"}),
               "--sim-threads");
  // A malformed variable is named in the diagnostic.
  EXPECT_DEATH(
      {
        ::setenv("CTA_JOBS", "4x", 1);
        parseServeArgs({"--socket", "s"});
      },
      "CTA_JOBS");
}

TEST(ClientFlagsDeathTest, StrictNumericParsing) {
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--concurrency", "8x"}),
               "--concurrency");
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--concurrency", "0"}),
               "--concurrency");
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--requests", "ten"}),
               "--requests");
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--mix", "9"}), "--mix");
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--mix", "a:b"}), "--mix");
  EXPECT_DEATH(parseClientArgs({"--socket", "s", "--mix", "0:0"}), "--mix");
  EXPECT_DEATH(parseClientArgs({}), "--socket");
}

TEST(ClientFlagsTest, ParsesTheFullSurface) {
  ClientOptions Opts = parseClientArgs(
      {"--socket=/tmp/s", "--workload", "fft", "--machine=nehalem",
       "--strategy", "base", "--scale", "0.5", "--concurrency=4",
       "--requests", "100", "--mix", "3:1", "--emit-json", "out.json",
       "--client", "me"});
  EXPECT_EQ(Opts.SocketPath, "/tmp/s");
  EXPECT_EQ(Opts.WorkloadSpec, "fft");
  EXPECT_EQ(Opts.MachineSpec, "nehalem");
  EXPECT_EQ(Opts.Strategy, "base");
  EXPECT_DOUBLE_EQ(Opts.Scale, 0.5);
  EXPECT_EQ(Opts.Concurrency, 4u);
  EXPECT_EQ(Opts.Requests, 100u);
  EXPECT_EQ(Opts.MixWarm, 3u);
  EXPECT_EQ(Opts.MixCold, 1u);
  EXPECT_EQ(Opts.EmitJsonPath, "out.json");
  EXPECT_EQ(Opts.ClientName, "me");
}

//===----------------------------------------------------------------------===//
// End-to-end daemon
//===----------------------------------------------------------------------===//

/// Sends one frame and returns the response frame's bytes.
std::string sendRecvRaw(int Fd, const std::string &Request) {
  std::string Err;
  EXPECT_TRUE(writeFrame(Fd, Request, &Err)) << Err;
  std::string Payload;
  EXPECT_EQ(readFrame(Fd, Payload, &Err), FrameStatus::Ok) << Err;
  return Payload;
}

JsonValue parseDoc(const std::string &Payload) {
  std::string Err;
  std::optional<JsonValue> Doc = parseJson(Payload, &Err);
  EXPECT_TRUE(Doc.has_value()) << Err;
  return Doc ? *Doc : JsonValue{};
}

/// Sends one frame and parses the response document.
JsonValue sendRecv(int Fd, const std::string &Request) {
  return parseDoc(sendRecvRaw(Fd, Request));
}

/// The bytes of an ok response's run object: everything after the head's
/// `"run":` but the closing brace.
std::string rawRun(const std::string &Frame) {
  const std::string Key = ",\"run\":";
  const std::size_t At = Frame.find(Key);
  if (At == std::string::npos || Frame.empty() || Frame.back() != '}')
    return "";
  return Frame.substr(At + Key.size(), Frame.size() - At - Key.size() - 1);
}

class ServerTest : public TempDirTest {
protected:
  std::unique_ptr<Server> Daemon;
  std::thread Runner;

  void startDaemon(std::size_t MaxInflight = 64) {
    installShutdownSignalHandlers();
    resetShutdownForTest();
    std::filesystem::create_directories(Dir);
    ServerOptions Opts;
    Opts.SocketPath = Dir + "/daemon.sock";
    Opts.Jobs = 2;
    Opts.CacheDir = Dir + "/cache";
    Opts.MaxInflight = MaxInflight;
    Daemon = std::make_unique<Server>(Opts);
    std::string Err;
    ASSERT_TRUE(Daemon->listen(&Err)) << Err;
    Runner = std::thread([this] { Daemon->run(); });
  }

  void TearDown() override {
    if (Daemon) {
      Daemon->stop();
      Runner.join();
    }
    resetShutdownForTest();
    TempDirTest::TearDown();
  }

  std::string socketPath() const { return Daemon->options().SocketPath; }
};

TEST_F(ServerTest, ColdThenWarmThenErrorsStayInBand) {
  startDaemon();
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);

  // Cold request: a miss, with a full run artifact.
  JsonValue Cold = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  EXPECT_EQ(Cold.get("status")->asString(), "ok");
  EXPECT_EQ(Cold.get("id")->asString(), "r1");
  EXPECT_EQ(Cold.get("cache_status")->asString(), "miss");
  ASSERT_NE(Cold.get("run"), nullptr);
  EXPECT_EQ(Cold.get("run")->get("schema")->asString(),
            "cta-run-artifact-v1");
  EXPECT_GT(Cold.get("run")->get("cycles")->asNumber(), 0.0);

  // Identical spec again: served warm, same cycles.
  JsonValue Warm = sendRecv(Fd, minimalRequest(",\"id\":\"r2\""));
  EXPECT_EQ(Warm.get("cache_status")->asString(), "warm");
  EXPECT_EQ(Warm.get("run")->get("cycles")->asNumber(),
            Cold.get("run")->get("cycles")->asNumber());

  // A malformed frame answers in-band and the connection stays usable.
  JsonValue Bad = sendRecv(Fd, "this is not json");
  EXPECT_EQ(Bad.get("status")->asString(), "error");
  EXPECT_EQ(Bad.get("error")->get("kind")->asString(), "bad_request");

  // Broken DSL: a positioned parse diagnostic, daemon alive throughout.
  JsonValue Parse = sendRecv(
      Fd, "{\"schema\":\"cta-serve-req-v1\",\"id\":\"r3\","
          "\"dsl\":\"array A[4] of\",\"dsl_name\":\"bad.cta\","
          "\"machine\":\"dunnington\"}");
  EXPECT_EQ(Parse.get("status")->asString(), "error");
  EXPECT_EQ(Parse.get("error")->get("kind")->asString(), "parse");
  EXPECT_NE(Parse.get("error")->get("message")->asString().find("bad.cta:"),
            std::string::npos);

  // Still serving after every error.
  JsonValue After = sendRecv(Fd, minimalRequest(",\"id\":\"r4\""));
  EXPECT_EQ(After.get("status")->asString(), "ok");
  ::close(Fd);

  Daemon->stop();
  Runner.join();
  ServerStats S = Daemon->stats();
  EXPECT_EQ(S.Requests, 5u);
  EXPECT_EQ(S.Ok, 3u);
  EXPECT_EQ(S.Errors, 2u);
  EXPECT_EQ(S.Warm, 2u);
  EXPECT_EQ(S.Connections, 1u);
  // stop() already ran; disarm TearDown's second stop.
  Daemon.reset();
}

TEST_F(ServerTest, ServerLatencySplitAgreesWithClientWall) {
  startDaemon();
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);

  // The response's server-side queue/service attribution must agree with
  // what this client observed: both halves non-negative, service nonzero
  // for a cold miss (it really simulated), and the sum inside the
  // client-measured wall time — the server's span is a strict subset of
  // the client's round trip.
  const auto T0 = std::chrono::steady_clock::now();
  JsonValue Cold = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  const double Wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  ASSERT_EQ(Cold.get("status")->asString(), "ok");
  const double Queue = Cold.get("queue_seconds")->asNumber(-1);
  const double Service = Cold.get("service_seconds")->asNumber(-1);
  EXPECT_GE(Queue, 0.0);
  EXPECT_GT(Service, 0.0);
  EXPECT_LE(Queue + Service, Wall);

  // Warm answers skip the admission queue entirely.
  const auto T1 = std::chrono::steady_clock::now();
  JsonValue Warm = sendRecv(Fd, minimalRequest(",\"id\":\"r2\""));
  const double WarmWall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T1)
          .count();
  ASSERT_EQ(Warm.get("cache_status")->asString(), "warm");
  EXPECT_DOUBLE_EQ(Warm.get("queue_seconds")->asNumber(-1), 0.0);
  EXPECT_GE(Warm.get("service_seconds")->asNumber(-1), 0.0);
  EXPECT_LE(Warm.get("service_seconds")->asNumber(), WarmWall);
  ::close(Fd);
}

TEST_F(ServerTest, ZeroCapacityShedsWithTypedOverload) {
  startDaemon(/*MaxInflight=*/0);
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);
  JsonValue Resp = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  EXPECT_EQ(Resp.get("status")->asString(), "error");
  EXPECT_EQ(Resp.get("error")->get("kind")->asString(), "overloaded");
  ::close(Fd);
}

TEST_F(ServerTest, GracefulStopDrainsAndUnlinksSocket) {
  startDaemon();
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);
  JsonValue Resp = sendRecv(Fd, minimalRequest(",\"id\":\"r1\""));
  EXPECT_EQ(Resp.get("status")->asString(), "ok");
  ::close(Fd);

  std::string Path = socketPath();
  Daemon->stop();
  Runner.join();
  EXPECT_FALSE(std::filesystem::exists(Path));
  Daemon.reset();
}

TEST_F(ServerTest, ConcurrentClientsAllGetAnswers) {
  startDaemon();
  constexpr unsigned NumClients = 6;
  constexpr unsigned PerClient = 8;
  std::atomic<unsigned> OkCount{0};
  std::vector<std::thread> Clients;
  for (unsigned C = 0; C != NumClients; ++C)
    Clients.emplace_back([&, C] {
      int Fd = connectToDaemon(socketPath(), nullptr);
      if (Fd < 0)
        return;
      for (unsigned I = 0; I != PerClient; ++I) {
        JsonValue Resp = sendRecv(
            Fd, minimalRequest(",\"client\":\"c" + std::to_string(C) +
                               "\",\"id\":\"q" + std::to_string(I) + "\""));
        const JsonValue *Status = Resp.get("status");
        if (Status && Status->asString() == "ok")
          OkCount.fetch_add(1);
      }
      ::close(Fd);
    });
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(OkCount.load(), NumClients * PerClient);
  // All clients asked for the same spec: exactly one simulator run.
  EXPECT_EQ(Daemon->service().simulatorInvocations(), 1u);
}

TEST_F(ServerTest, FinishedReadersAreJoined) {
  startDaemon();
  // One connection stays open throughout: its reader must survive.
  int Held = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Held, 0);
  const std::string Stats = "{\"schema\":\"cta-serve-stats-v1\"}";
  for (int I = 0; I != 50; ++I) {
    int Fd = connectToDaemon(socketPath(), nullptr);
    ASSERT_GE(Fd, 0);
    EXPECT_TRUE(sendRecv(Fd, Stats).isObject());
    ::close(Fd);
  }
  // The accept loop reaps each time it wakes, at least every 500 ms.
  const auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (Daemon->readerCount() > 1 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_LE(Daemon->readerCount(), 1u);
  EXPECT_EQ(Daemon->stats().Connections, 51u);
  EXPECT_TRUE(sendRecv(Held, Stats).isObject());
  ::close(Held);
}

/// The run object a warm answer to \p Request carries, rendered from the
/// warm index the way the daemon renders it without the memo.
std::string warmIndexRun(Server &Daemon, const std::string &Request) {
  RequestError Err;
  std::optional<ServeRequest> Req = parseServeRequest(Request, Err);
  std::optional<RunTask> Task;
  if (Req)
    Task = buildRunTask(*Req, Err);
  if (!Task) {
    ADD_FAILURE() << Err.Message;
    return "";
  }
  std::shared_ptr<const TaskOutcome> W =
      Daemon.service().lookupWarm(Service::fingerprint(*Task));
  if (!W) {
    ADD_FAILURE() << "no warm index entry for " << Task->Label;
    return "";
  }
  obs::RunArtifact A = W->Artifact;
  A.CacheStatus = "warm";
  A.Label = Task->Label;
  return rawRun(renderOkResponse(Req->Id, "warm", 0.0, 0.0, A));
}

std::uint64_t memoCounter(Server &Daemon, const std::string &Name) {
  return Daemon.telemetrySnapshot().Counters["serve.warm_memo." + Name];
}

TEST_F(ServerTest, RepeatedWarmRequestsAnswerFromTheMemo) {
  startDaemon();
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);
  // One spec, sent under a different id, client and dsl_name each time.
  auto send = [&](const std::string &N) {
    return sendRecvRaw(Fd, minimalRequest(",\"id\":\"r" + N +
                                          "\",\"client\":\"c" + N +
                                          "\",\"dsl_name\":\"n" + N +
                                          ".cta\""));
  };
  auto statusOf = [](const std::string &Frame) {
    return parseDoc(Frame).get("cache_status")->asString();
  };

  EXPECT_EQ(statusOf(send("1")), "miss");
  EXPECT_EQ(Daemon->warmMemoBytes(), 0u); // a cold answer never fills
  const std::string Fill = send("2");
  EXPECT_EQ(statusOf(Fill), "warm");
  EXPECT_EQ(memoCounter(*Daemon, "fills"), 1u);
  EXPECT_EQ(memoCounter(*Daemon, "hits"), 0u);
  const std::string Hit = send("3");
  EXPECT_EQ(statusOf(Hit), "warm");
  EXPECT_EQ(memoCounter(*Daemon, "fills"), 1u);
  EXPECT_EQ(memoCounter(*Daemon, "hits"), 1u);
  EXPECT_EQ(parseDoc(Hit).get("id")->asString(), "r3");
  EXPECT_DOUBLE_EQ(parseDoc(Hit).get("queue_seconds")->asNumber(-1), 0.0);

  // Fill and memo send the same run bytes, the ones the warm index gives.
  ASSERT_FALSE(rawRun(Hit).empty());
  EXPECT_EQ(rawRun(Fill), rawRun(Hit));
  EXPECT_EQ(rawRun(Hit), warmIndexRun(*Daemon, minimalRequest()));

  // Only alpha differs: another task, answered cold. The same alpha
  // written another way is one key: filled once, then a memo hit.
  EXPECT_EQ(statusOf(sendRecvRaw(Fd, minimalRequest(",\"alpha\":0.625"))),
            "miss");
  EXPECT_EQ(statusOf(sendRecvRaw(Fd, minimalRequest(",\"alpha\":6.25e-1"))),
            "warm");
  EXPECT_EQ(statusOf(sendRecvRaw(Fd, minimalRequest(",\"alpha\":0.625"))),
            "warm");
  EXPECT_EQ(memoCounter(*Daemon, "fills"), 2u);
  EXPECT_EQ(memoCounter(*Daemon, "hits"), 2u);
  ::close(Fd);

  // Memo hits count as warm answers in the stats and the warm tier.
  EXPECT_EQ(Daemon->stats().Warm, 4u);
  EXPECT_EQ(Daemon->telemetrySnapshot().Counters["serve.tier.warm"], 4u);
}

TEST_F(ServerTest, CommentVariantsStayWithinTheMemoBudget) {
  startDaemon();
  int Fd = connectToDaemon(socketPath(), nullptr);
  ASSERT_GE(Fd, 0);
  // .topo texts that differ only in a comment share one fingerprint but
  // not one memo key. Each comment holds over a fifth of the budget, so
  // at most four entries fit and six variants overflow it.
  const std::string Pad(Server::WarmMemoBudgetBytes / 5, 'x');
  auto variant = [&](int N) {
    return "{\"schema\":\"cta-serve-req-v1\",\"workload\":\"cg\","
           "\"topo\":\"" +
           obs::jsonEscape("# " + std::to_string(N) + Pad +
                           "\nmem:50 l2:64K:8:10 { core core }") +
           "\"}";
  };
  ASSERT_EQ(sendRecv(Fd, variant(0)).get("cache_status")->asString(),
            "miss");
  const std::string Want = warmIndexRun(*Daemon, variant(0));
  ASSERT_FALSE(Want.empty());

  std::size_t Held = 0;
  bool Cleared = false;
  for (int N = 0; N != 6; ++N)
    for (int Repeat = 0; Repeat != 2; ++Repeat) {
      const std::string Frame = sendRecvRaw(Fd, variant(N));
      EXPECT_EQ(parseDoc(Frame).get("cache_status")->asString(), "warm")
          << "variant " << N;
      EXPECT_EQ(rawRun(Frame), Want) << "variant " << N;
      const std::size_t Bytes = Daemon->warmMemoBytes();
      EXPECT_LE(Bytes, Server::WarmMemoBudgetBytes);
      Cleared |= Bytes < Held;
      Held = Bytes;
    }
  ::close(Fd);
  EXPECT_TRUE(Cleared);
  EXPECT_EQ(Daemon->service().warmIndexSize(), 1u);
  // Each variant filled once and was answered from the memo once.
  EXPECT_EQ(memoCounter(*Daemon, "fills"), 6u);
  EXPECT_EQ(memoCounter(*Daemon, "hits"), 6u);
}

} // namespace
