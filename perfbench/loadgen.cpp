//===- perfbench/loadgen.cpp - Load generator for `cta serve` -------------===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a running `cta serve` daemon from outside, over its Unix socket,
/// speaking the cta-serve-req-v1 / cta-serve-resp-v1 frames (a 4-byte
/// big-endian length, then JSON). Deliberately linked against nothing from
/// the program: it measures the daemon the way any client would.
///
///   loadgen warm  --socket S --pid P --payloads F --expect F --seed N
///                 --conns C --round-requests N --seconds T --out F
///       C closed-loop connections repeat the primed warm payloads in a
///       seeded order, in rounds of N requests; each round records its
///       wall time and the daemon's CPU time.
///
///   loadgen mixed --socket S --pid P --cold F --payloads F --expect F
///                 --seed N --conns C --probe-rate R --out F
///       C closed-loop connections send every cold payload once, in file
///       order; beside them one connection sends warm payloads open-loop at
///       R per second, each timed from when it was due.
///
/// Every response is checked: status ok, the cache_status the payload was
/// built for, and for warm answers, the deterministic fields of the "run"
/// object equal to the priming answer's (--expect, one response per
/// payload line).
///
//===----------------------------------------------------------------------===//

#include "Probe.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "loadgen: %s\n", Msg.c_str());
  std::exit(2);
}

double secondsSince(Clock::time_point T0, Clock::time_point T) {
  return std::chrono::duration<double>(T - T0).count();
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot read " + Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// utime + stime of process \p Pid, in seconds (all threads, live or
/// exited).
double processCpuSeconds(long Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Stat;
  std::getline(In, Stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  std::size_t Close = Stat.rfind(')');
  if (Close == std::string::npos)
    die("cannot read CPU time of pid " + std::to_string(Pid));
  std::vector<std::string> Fields;
  std::size_t Pos = Close + 2;
  while (Pos < Stat.size()) {
    std::size_t End = Stat.find(' ', Pos);
    if (End == std::string::npos)
      End = Stat.size();
    Fields.push_back(Stat.substr(Pos, End - Pos));
    Pos = End + 1;
  }
  if (Fields.size() < 13)
    die("short /proc stat line");
  const double Tick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return (std::strtod(Fields[11].c_str(), nullptr) +
          std::strtod(Fields[12].c_str(), nullptr)) /
         Tick;
}

/// CPU time of the live threads of process \p Pid, in seconds, at
/// nanosecond resolution. A warm round's threads (the daemon's pool and one
/// reader per connection) outlive the round, so a difference of two
/// readings is the round's CPU.
double liveThreadsCpuSeconds(long Pid) {
  double Sum = 0;
  std::error_code EC;
  for (const auto &Task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(Pid) + "/task", EC)) {
    std::ifstream In(Task.path() / "schedstat");
    unsigned long long Ns = 0;
    if (In >> Ns)
      Sum += Ns * 1e-9;
  }
  if (EC)
    die("cannot read the threads of pid " + std::to_string(Pid));
  return Sum;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    die("socket path too long: " + Path);
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0 ||
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    die("cannot connect to " + Path + ": " + std::strerror(errno));
  return Fd;
}

bool writeAll(int Fd, const char *Data, std::size_t Len) {
  while (Len) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

bool readAll(int Fd, char *Data, std::size_t Len) {
  while (Len) {
    ssize_t N = ::read(Fd, Data, Len);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

bool sendFrame(int Fd, const std::string &Payload) {
  std::string Buf(4, '\0');
  const std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  Buf[0] = static_cast<char>(Len >> 24);
  Buf[1] = static_cast<char>(Len >> 16);
  Buf[2] = static_cast<char>(Len >> 8);
  Buf[3] = static_cast<char>(Len);
  Buf += Payload;
  return writeAll(Fd, Buf.data(), Buf.size());
}

bool recvFrame(int Fd, std::string &Payload) {
  unsigned char Hdr[4];
  if (!readAll(Fd, reinterpret_cast<char *>(Hdr), 4))
    return false;
  const std::uint32_t Len = (std::uint32_t(Hdr[0]) << 24) |
                            (std::uint32_t(Hdr[1]) << 16) |
                            (std::uint32_t(Hdr[2]) << 8) | Hdr[3];
  if (Len > (16u << 20))
    return false;
  Payload.resize(Len);
  return readAll(Fd, Payload.data(), Len);
}

//===----------------------------------------------------------------------===//
// Response checks
//===----------------------------------------------------------------------===//

/// The response fields a check needs, located without a JSON parser: the
/// renderer writes compact JSON with the top-level keys before "run".
struct Response {
  std::string_view Head; // everything before "run"
  std::string_view Run;  // the run object
};

Response split(std::string_view Frame) {
  Response R;
  std::size_t At = Frame.find("\"run\":{");
  if (At == std::string_view::npos) {
    R.Head = Frame;
    return R;
  }
  R.Head = Frame.substr(0, At);
  R.Run = Frame.substr(At + 6, Frame.size() - (At + 6) - 1); // drop final }
  return R;
}

std::string stringField(std::string_view Json, std::string_view Key) {
  std::string Pat = "\"" + std::string(Key) + "\":\"";
  std::size_t At = Json.find(Pat);
  if (At == std::string_view::npos)
    return "";
  At += Pat.size();
  std::size_t End = Json.find('"', At);
  return std::string(Json.substr(At, End - At));
}

double numberField(std::string_view Json, std::string_view Key) {
  std::string Pat = "\"" + std::string(Key) + "\":";
  std::size_t At = Json.find(Pat);
  if (At == std::string_view::npos)
    return -1;
  return std::strtod(std::string(Json.substr(At + Pat.size(), 32)).c_str(),
                     nullptr);
}

/// Index just past the JSON value starting at \p At (a scalar, string,
/// array or object), honouring nesting and string escapes.
std::size_t skipValue(std::string_view J, std::size_t At) {
  int Depth = 0;
  bool InString = false;
  for (std::size_t I = At; I < J.size(); ++I) {
    const char C = J[I];
    if (InString) {
      if (C == '\\')
        ++I;
      else if (C == '"' && (InString = false, Depth == 0))
        return I + 1;
    } else if (C == '"') {
      InString = true;
    } else if (C == '[' || C == '{') {
      ++Depth;
    } else if (C == ']' || C == '}') {
      if (Depth == 0)
        return I; // end of the enclosing container: a scalar ended here
      if (--Depth == 0)
        return I + 1;
    } else if (C == ',' && Depth == 0) {
      return I;
    }
  }
  return J.size();
}

/// The run object without the fields that are measurements or per-waiter
/// views rather than results: mapping_seconds, phases and cache_status.
std::string deterministicRun(std::string_view Run) {
  std::string Out(Run);
  for (const char *Key : {"\"mapping_seconds\":", "\"phases\":",
                          "\"cache_status\":"}) {
    std::size_t At = Out.find(Key);
    if (At == std::string::npos)
      continue;
    std::size_t End = skipValue(Out, At + std::strlen(Key));
    if (End < Out.size() && Out[End] == ',')
      ++End;
    Out.erase(At, End - At);
  }
  return Out;
}

/// What a warm answer to each payload must contain.
struct Expectation {
  std::string WarmRun;       // priming run with cache_status "warm"
  std::string Deterministic; // deterministicRun of the priming run
};

std::vector<Expectation> loadExpectations(const std::string &Path) {
  std::vector<Expectation> Out;
  for (const std::string &Frame : readLines(Path)) {
    Response R = split(Frame);
    if (R.Run.empty())
      die("priming response without a run object");
    Expectation E;
    E.WarmRun = std::string(R.Run);
    const std::string Miss = "\"cache_status\":\"miss\"";
    std::size_t At = E.WarmRun.find(Miss);
    if (At != std::string::npos)
      E.WarmRun.replace(At, Miss.size(), "\"cache_status\":\"warm\"");
    E.Deterministic = deterministicRun(R.Run);
    Out.push_back(std::move(E));
  }
  return Out;
}

/// Empty when \p Frame is a correct answer; otherwise why not.
std::string checkResponse(const std::string &Frame, const char *Tier,
                          const Expectation *Expect) {
  Response R = split(Frame);
  if (stringField(R.Head, "status") != "ok")
    return "status " + stringField(R.Head, "status");
  if (stringField(R.Head, "cache_status") != Tier)
    return "cache_status " + stringField(R.Head, "cache_status");
  if (Expect && R.Run != Expect->WarmRun &&
      deterministicRun(R.Run) != Expect->Deterministic)
    return "warm answer differs from its priming answer";
  return "";
}

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

struct Tally {
  std::mutex Mu;
  std::uint64_t Attempted = 0, Failed = 0;
  std::map<std::string, std::uint64_t> Reasons;

  void add(const std::string &Why) {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Attempted;
    if (!Why.empty()) {
      ++Failed;
      ++Reasons[Why];
    }
  }
};

/// Linear-interpolated \p Q-th percentile of \p V (sorted in place).
double percentile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = (V.size() - 1) * Q / 100.0;
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - Lo);
}

void writeArray(std::FILE *F, const char *Key, const std::vector<double> &V,
                double Scale) {
  std::fprintf(F, ",\"%s\":[", Key);
  for (std::size_t I = 0; I != V.size(); ++I)
    std::fprintf(F, "%s%.3f", I ? "," : "", V[I] * Scale);
  std::fputs("]", F);
}

void writeTally(std::FILE *F, const Tally &T) {
  std::fprintf(F, "\"attempted\":%llu,\"failed\":%llu,\"reasons\":{",
               static_cast<unsigned long long>(T.Attempted),
               static_cast<unsigned long long>(T.Failed));
  bool First = true;
  for (const auto &[Why, N] : T.Reasons) {
    std::fprintf(F, "%s\"%s\":%llu", First ? "" : ",", Why.c_str(),
                 static_cast<unsigned long long>(N));
    First = false;
  }
  std::fputs("}", F);
}

std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < Argc; ++I) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0 || I + 1 >= Argc)
      die("expected --flag value, got '" + Key + "'");
    Flags[Key.substr(2)] = Argv[++I];
  }
  return Flags;
}

std::string flag(const std::map<std::string, std::string> &Flags,
                 const char *Name) {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    die(std::string("missing --") + Name);
  return It->second;
}

//===----------------------------------------------------------------------===//
// warm: closed loop over the primed keys
//===----------------------------------------------------------------------===//

int runWarm(const std::map<std::string, std::string> &Flags) {
  const std::string Socket = flag(Flags, "socket");
  const long Pid = std::stol(flag(Flags, "pid"));
  const std::vector<std::string> Payloads = readLines(flag(Flags, "payloads"));
  const std::vector<Expectation> Expect =
      loadExpectations(flag(Flags, "expect"));
  const unsigned Seed = std::stoul(flag(Flags, "seed"));
  const unsigned Conns = std::stoul(flag(Flags, "conns"));
  const unsigned RoundRequests = std::stoul(flag(Flags, "round-requests"));
  const double Seconds = std::stod(flag(Flags, "seconds"));
  if (Payloads.empty() || Payloads.size() != Expect.size() || Conns == 0)
    die("need one priming answer per warm payload");

  std::vector<int> Fds;
  for (unsigned C = 0; C != Conns; ++C)
    Fds.push_back(connectTo(Socket));

  struct Round {
    double Wall, Cpu, P50, P99, Probe;
  };
  // Host speed, read right after each round while the daemon is idle.
  const perfbench::Probe HostProbe;
  std::vector<Round> Rounds;
  std::vector<std::vector<double>> Latency(Conns), Service(Conns);
  std::vector<double> Bytes(Conns, 0);
  Tally Checks;

  const Clock::time_point Start = Clock::now();
  do {
    std::vector<std::size_t> Before;
    for (const auto &L : Latency)
      Before.push_back(L.size());
    const double Cpu0 = liveThreadsCpuSeconds(Pid);
    const Clock::time_point R0 = Clock::now();
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C != Conns; ++C)
      Threads.emplace_back([&, C] {
        std::mt19937 Rng(Seed * 7919u + C * 104729u +
                         static_cast<unsigned>(Rounds.size()));
        std::uniform_int_distribution<std::size_t> Pick(0,
                                                         Payloads.size() - 1);
        std::string Frame;
        for (unsigned I = C; I < RoundRequests; I += Conns) {
          const std::size_t K = Pick(Rng);
          const Clock::time_point T0 = Clock::now();
          if (!sendFrame(Fds[C], Payloads[K]) || !recvFrame(Fds[C], Frame))
            die("connection to the daemon lost");
          const Clock::time_point T1 = Clock::now();
          Latency[C].push_back(secondsSince(T0, T1));
          Service[C].push_back(numberField(Frame, "service_seconds"));
          Bytes[C] += static_cast<double>(Frame.size());
          Checks.add(checkResponse(Frame, "warm", &Expect[K]));
        }
      });
    for (std::thread &T : Threads)
      T.join();
    const double Wall = secondsSince(R0, Clock::now());
    const double Cpu = liveThreadsCpuSeconds(Pid) - Cpu0;
    std::vector<double> RoundLatency;
    for (unsigned C = 0; C != Conns; ++C)
      RoundLatency.insert(RoundLatency.end(), Latency[C].begin() + Before[C],
                          Latency[C].end());
    Rounds.push_back({Wall, Cpu, percentile(RoundLatency, 50),
                      percentile(RoundLatency, 99), HostProbe.run()});
  } while (secondsSince(Start, Clock::now()) + Rounds.back().Wall <= Seconds);
  for (int Fd : Fds)
    ::close(Fd);

  std::vector<double> AllLatency, AllService;
  double TotalBytes = 0;
  for (unsigned C = 0; C != Conns; ++C) {
    AllLatency.insert(AllLatency.end(), Latency[C].begin(), Latency[C].end());
    AllService.insert(AllService.end(), Service[C].begin(), Service[C].end());
    TotalBytes += Bytes[C];
  }
  std::FILE *F = std::fopen(flag(Flags, "out").c_str(), "w");
  if (!F)
    die("cannot write output");
  std::fputs("{", F);
  writeTally(F, Checks);
  std::fputs(",\"rounds\":[", F);
  for (std::size_t I = 0; I != Rounds.size(); ++I)
    std::fprintf(F,
                 "%s{\"wall_s\":%.9f,\"cpu_s\":%.9f,\"requests\":%u,"
                 "\"p50_us\":%.3f,\"p99_us\":%.3f,\"host_probe_s\":%.9f}",
                 I ? "," : "", Rounds[I].Wall, Rounds[I].Cpu, RoundRequests,
                 Rounds[I].P50 * 1e6, Rounds[I].P99 * 1e6, Rounds[I].Probe);
  std::fprintf(F, "],\"response_bytes\":%.1f",
               AllLatency.empty() ? 0.0 : TotalBytes / AllLatency.size());
  writeArray(F, "latency_us", AllLatency, 1e6);
  writeArray(F, "service_us", AllService, 1e6);
  std::fputs("}\n", F);
  std::fclose(F);
  return 0;
}

//===----------------------------------------------------------------------===//
// mixed: closed-loop cold requests beside an open-loop warm probe
//===----------------------------------------------------------------------===//

/// \p Payload with an "id" member added (payloads are generated without
/// one).
std::string withId(const std::string &Payload, const std::string &Id) {
  return "{\"id\":\"" + Id + "\"," + Payload.substr(1);
}

int runMixed(const std::map<std::string, std::string> &Flags) {
  const std::string Socket = flag(Flags, "socket");
  const long Pid = std::stol(flag(Flags, "pid"));
  const std::vector<std::string> Cold = readLines(flag(Flags, "cold"));
  const std::vector<std::string> Warm = readLines(flag(Flags, "payloads"));
  const std::vector<Expectation> Expect =
      loadExpectations(flag(Flags, "expect"));
  const unsigned Seed = std::stoul(flag(Flags, "seed"));
  const unsigned Conns = std::stoul(flag(Flags, "conns"));
  const double Rate = std::stod(flag(Flags, "probe-rate"));
  if (Warm.empty() || Warm.size() != Expect.size() || Conns == 0 || Rate <= 0)
    die("need warm payloads with priming answers, connections and a rate");

  struct ColdResult {
    double Latency = 0, Queue = -1, Service = -1;
    unsigned long long Cycles = 0;
  };
  std::vector<ColdResult> ColdOut(Cold.size());
  std::atomic<std::size_t> Next{0}, Done{0};
  std::atomic<bool> ColdFinished{false};
  Tally Checks;

  // The probe: a sender on the schedule, a receiver matching answers in
  // order (warm answers on one connection come back in request order).
  const int ProbeFd = connectTo(Socket);
  std::vector<Clock::time_point> Due;
  std::vector<double> Late, ProbeLatency, ProbeService;
  std::mutex ProbeMu;
  std::atomic<std::size_t> Sent{0};
  std::atomic<bool> SenderDone{false};

  // Host speed, read before and after the load and every quarter second
  // during it (about 8% of one CPU).
  const perfbench::Probe HostProbe;
  std::vector<double> ProbeSeconds;
  for (int I = 0; I != 5; ++I)
    ProbeSeconds.push_back(HostProbe.run());
  std::thread Prober([&] {
    while (!ColdFinished.load()) {
      ProbeSeconds.push_back(HostProbe.run());
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
    }
  });

  const double Cpu0 = processCpuSeconds(Pid);
  const Clock::time_point Start = Clock::now();
  std::thread Sender([&] {
    std::mt19937 Rng(Seed * 31u + 17u);
    std::uniform_int_distribution<std::size_t> Pick(0, Warm.size() - 1);
    for (std::size_t I = 0; !ColdFinished.load(); ++I) {
      const Clock::time_point When =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(I / Rate));
      std::this_thread::sleep_until(When);
      if (ColdFinished.load())
        break;
      const std::size_t K = Pick(Rng);
      std::string Payload = withId(Warm[K], "p" + std::to_string(I) + "k" +
                                                std::to_string(K));
      {
        std::lock_guard<std::mutex> Lock(ProbeMu);
        Due.push_back(When);
        Late.push_back(secondsSince(When, Clock::now()));
      }
      if (!sendFrame(ProbeFd, Payload))
        die("probe connection lost");
      Sent.fetch_add(1);
    }
    SenderDone.store(true);
    ::shutdown(ProbeFd, SHUT_WR);
  });
  std::thread Receiver([&] {
    std::string Frame;
    for (std::size_t I = 0;; ++I) {
      if (!recvFrame(ProbeFd, Frame))
        break; // the daemon closes after answering everything sent
      const Clock::time_point Now = Clock::now();
      Clock::time_point When;
      {
        std::lock_guard<std::mutex> Lock(ProbeMu);
        When = Due[I];
      }
      ProbeLatency.push_back(secondsSince(When, Now));
      ProbeService.push_back(numberField(Frame, "service_seconds"));
      const std::string Id = stringField(Frame, "id");
      const std::size_t K = std::strtoul(
          Id.substr(Id.find('k') == std::string::npos ? 0 : Id.find('k') + 1)
              .c_str(),
          nullptr, 10);
      if (Id.rfind("p" + std::to_string(I) + "k", 0) != 0 || K >= Expect.size())
        Checks.add("probe answer out of order");
      else
        Checks.add(checkResponse(Frame, "warm", &Expect[K]));
    }
  });

  std::vector<std::thread> ColdThreads;
  for (unsigned C = 0; C != Conns; ++C)
    ColdThreads.emplace_back([&] {
      const int Fd = connectTo(Socket);
      std::string Frame;
      for (std::size_t I; (I = Next.fetch_add(1)) < Cold.size();) {
        const Clock::time_point T0 = Clock::now();
        if (!sendFrame(Fd, withId(Cold[I], "c" + std::to_string(I))) ||
            !recvFrame(Fd, Frame))
          die("connection to the daemon lost");
        ColdResult &R = ColdOut[I];
        R.Latency = secondsSince(T0, Clock::now());
        R.Queue = numberField(Frame, "queue_seconds");
        R.Service = numberField(Frame, "service_seconds");
        Response Parts = split(Frame);
        R.Cycles = static_cast<unsigned long long>(
            numberField(Parts.Run, "cycles"));
        std::string Why = checkResponse(Frame, "miss", nullptr);
        if (Why.empty() && stringField(Frame, "id") != "c" + std::to_string(I))
          Why = "cold answer for another request";
        Checks.add(Why);
      }
      ::close(Fd);
      if (Done.fetch_add(1) + 1 == Conns)
        ColdFinished.store(true);
    });
  for (std::thread &T : ColdThreads)
    T.join();
  const double Wall = secondsSince(Start, Clock::now());
  const double Cpu = processCpuSeconds(Pid) - Cpu0;
  Sender.join();
  Receiver.join();
  Prober.join();
  ::close(ProbeFd);
  for (int I = 0; I != 5; ++I)
    ProbeSeconds.push_back(HostProbe.run());
  if (ProbeLatency.size() != Sent.load())
    Checks.add("probe answers missing");

  std::FILE *F = std::fopen(flag(Flags, "out").c_str(), "w");
  if (!F)
    die("cannot write output");
  std::fputs("{", F);
  writeTally(F, Checks);
  std::fprintf(F, ",\"wall_s\":%.9f,\"cpu_s\":%.4f,\"cold\":[", Wall, Cpu);
  for (std::size_t I = 0; I != ColdOut.size(); ++I)
    std::fprintf(F,
                 "%s{\"latency_s\":%.9f,\"queue_s\":%.9f,\"service_s\":%.9f,"
                 "\"cycles\":%llu}",
                 I ? "," : "", ColdOut[I].Latency, ColdOut[I].Queue,
                 ColdOut[I].Service, ColdOut[I].Cycles);
  std::fputs("]", F);
  writeArray(F, "probe_latency_us", ProbeLatency, 1e6);
  writeArray(F, "probe_service_us", ProbeService, 1e6);
  writeArray(F, "probe_late_us", Late, 1e6);
  writeArray(F, "host_probe_us", ProbeSeconds, 1e6);
  std::fputs("}\n", F);
  std::fclose(F);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: loadgen warm|mixed --flag value...");
  const std::string Mode = Argv[1];
  std::map<std::string, std::string> Flags = parseFlags(Argc, Argv);
  if (Mode == "warm")
    return runWarm(Flags);
  if (Mode == "mixed")
    return runMixed(Flags);
  die("unknown mode '" + Mode + "'");
}
