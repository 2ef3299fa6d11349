//===- serve/Top.cpp - Live fleet dashboard (cta top) ---------------------===//

#include "serve/Top.h"

#include "serve/Json.h"
#include "serve/Protocol.h"
#include "support/CommandLine.h"
#include "support/ParseNumber.h"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <optional>
#include <thread>

using namespace cta;
using namespace cta::serve;

TopOptions cta::serve::parseTopArgs(const std::vector<std::string> &Args) {
  TopOptions Opts;
  for (std::size_t I = 0; I != Args.size(); ++I) {
    const std::string &Arg = Args[I];
    std::string Value;
    if (matchFlag(Args, I, "--once")) {
      Opts.Once = true;
    } else if (matchFlag(Args, I, "--socket", &Value)) {
      Opts.SocketPath = Value;
    } else if (matchFlag(Args, I, "--interval-ms", &Value)) {
      Opts.IntervalMs =
          parseUint64OrDie("--interval-ms", Value, /*Max=*/60 * 60 * 1000);
    } else if (matchFlag(Args, I, "--count", &Value)) {
      Opts.Count = parseUint64OrDie("--count", Value);
    } else {
      reportUsageError("unknown `cta top` flag '" + Arg + "'");
    }
  }
  if (Opts.SocketPath.empty())
    reportUsageError("`cta top` needs --socket=PATH");
  if (Opts.Once)
    Opts.Count = 1;
  return Opts;
}

namespace {

std::uint64_t counterOf(const JsonValue &Doc, const std::string &Name) {
  const JsonValue *Counters = Doc.get("counters");
  const JsonValue *V = Counters ? Counters->get(Name) : nullptr;
  return V && V->isNumber() && V->Num >= 0
             ? static_cast<std::uint64_t>(V->Num)
             : 0;
}

double gaugeOf(const JsonValue &Doc, const std::string &Name) {
  const JsonValue *Gauges = Doc.get("gauges");
  const JsonValue *V = Gauges ? Gauges->get(Name) : nullptr;
  return V ? V->asNumber(0.0) : 0.0;
}

/// Bucket-walk percentile over one serialized histogram: the smallest
/// present "le" bound whose cumulative count reaches P of the total.
/// Returns -1 for an empty or absent histogram ("inf" renders as "inf").
double histPercentile(const JsonValue &Doc, const std::string &Name,
                      double P) {
  const JsonValue *Hists = Doc.get("histograms");
  const JsonValue *H = Hists ? Hists->get(Name) : nullptr;
  const JsonValue *Buckets = H ? H->get("buckets") : nullptr;
  if (!Buckets || !Buckets->isArray() || Buckets->Arr.empty())
    return -1.0;
  std::uint64_t Total = 0;
  for (const JsonValue &B : Buckets->Arr)
    Total += static_cast<std::uint64_t>(
        B.get("count") ? B.get("count")->asNumber(0) : 0);
  if (Total == 0)
    return -1.0;
  const double Want = P * static_cast<double>(Total);
  std::uint64_t Cumulative = 0;
  for (const JsonValue &B : Buckets->Arr) {
    Cumulative += static_cast<std::uint64_t>(
        B.get("count") ? B.get("count")->asNumber(0) : 0);
    if (static_cast<double>(Cumulative) >= Want) {
      const JsonValue *Le = B.get("le");
      if (Le && Le->isString()) // the "inf" overflow bound
        return std::numeric_limits<double>::infinity();
      return Le ? Le->asNumber(0.0) : 0.0;
    }
  }
  return std::numeric_limits<double>::infinity();
}

std::string fmtSeconds(double S) {
  char Buf[32];
  if (S < 0)
    return "    -";
  if (std::isinf(S))
    return "  inf";
  if (S < 1e-3)
    std::snprintf(Buf, sizeof(Buf), "%4.0fus", S * 1e6);
  else if (S < 1.0)
    std::snprintf(Buf, sizeof(Buf), "%4.1fms", S * 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%5.2fs", S);
  return Buf;
}

/// One poll's view plus the deltas that turn counters into rates.
struct RateTracker {
  std::map<std::string, std::uint64_t> Prev;
  double PrevUptime = 0.0;
  bool HavePrev = false;

  /// Per-second rate of \p Name between the previous poll and \p Doc;
  /// lifetime average on the first poll.
  double rate(const JsonValue &Doc, const std::string &Name,
              double Uptime) const {
    const std::uint64_t Cur = counterOf(Doc, Name);
    if (HavePrev) {
      const double Dt = Uptime - PrevUptime;
      auto It = Prev.find(Name);
      const std::uint64_t Old = It == Prev.end() ? 0 : It->second;
      if (Dt > 0 && Cur >= Old)
        return static_cast<double>(Cur - Old) / Dt;
    }
    return Uptime > 0 ? static_cast<double>(Cur) / Uptime : 0.0;
  }

  void advance(const JsonValue &Doc, double Uptime) {
    Prev.clear();
    if (const JsonValue *Counters = Doc.get("counters"))
      for (const auto &[Name, V] : Counters->Obj)
        if (V.isNumber() && V.Num >= 0)
          Prev[Name] = static_cast<std::uint64_t>(V.Num);
    PrevUptime = Uptime;
    HavePrev = true;
  }
};

void render(const JsonValue &Doc, const TopOptions &Opts,
            const RateTracker &Rates, std::uint64_t Poll) {
  const double Uptime =
      Doc.get("uptime_seconds") ? Doc.get("uptime_seconds")->asNumber(0) : 0;
  const std::int64_t RssKb = static_cast<std::int64_t>(
      Doc.get("rss_kb") ? Doc.get("rss_kb")->asNumber(0) : 0);

  if (!Opts.Once)
    std::fputs("\x1b[H\x1b[2J", stdout); // cursor home + clear screen

  std::printf("cta top — %s\n", Opts.SocketPath.c_str());
  std::printf("uptime %.1fs   rss %lld KB   poll #%llu (%.1fs interval)\n\n",
              Uptime, static_cast<long long>(RssKb),
              static_cast<unsigned long long>(Poll),
              static_cast<double>(Opts.IntervalMs) / 1000.0);

  std::printf("requests %8llu  (%.1f/s)   ok %llu   errors %llu   "
              "shed %llu   connections %llu\n",
              static_cast<unsigned long long>(counterOf(Doc,
                                                        "serve.requests")),
              Rates.rate(Doc, "serve.requests", Uptime),
              static_cast<unsigned long long>(counterOf(Doc, "serve.ok")),
              static_cast<unsigned long long>(counterOf(Doc,
                                                        "serve.errors")),
              static_cast<unsigned long long>(counterOf(Doc, "serve.shed")),
              static_cast<unsigned long long>(
                  counterOf(Doc, "serve.connections")));
  std::printf("inflight %.0f   warm-index %.0f entries   stats polls "
              "%llu\n\n",
              gaugeOf(Doc, "serve.inflight"),
              gaugeOf(Doc, "serve.warm_index.entries"),
              static_cast<unsigned long long>(
                  counterOf(Doc, "serve.stats_requests")));

  std::printf("%-12s %10s %9s %8s %8s %8s\n", "tier", "served", "rate/s",
              "p50", "p95", "p99");
  for (const char *Tier :
       {"warm", "coalesced", "hit", "miss", "disabled", "bypass"}) {
    const std::string Counter = std::string("serve.tier.") + Tier;
    const std::string Hist = std::string("serve.latency.") + Tier;
    const std::uint64_t Served = counterOf(Doc, Counter);
    if (Served == 0)
      continue; // quiet tiers stay off the board
    std::printf("%-12s %10llu %9.1f %8s %8s %8s\n", Tier,
                static_cast<unsigned long long>(Served),
                Rates.rate(Doc, Counter, Uptime),
                fmtSeconds(histPercentile(Doc, Hist, 0.50)).c_str(),
                fmtSeconds(histPercentile(Doc, Hist, 0.95)).c_str(),
                fmtSeconds(histPercentile(Doc, Hist, 0.99)).c_str());
  }

  const std::uint64_t Hits = counterOf(Doc, "serve.cache.hits");
  const std::uint64_t Misses = counterOf(Doc, "serve.cache.misses");
  const double Ratio =
      Hits + Misses
          ? 100.0 * static_cast<double>(Hits) /
                static_cast<double>(Hits + Misses)
          : 0.0;
  std::printf("\ncache        hits %llu   misses %llu   stores %llu   "
              "hit-ratio %.1f%%\n",
              static_cast<unsigned long long>(Hits),
              static_cast<unsigned long long>(Misses),
              static_cast<unsigned long long>(
                  counterOf(Doc, "serve.cache.stores")),
              Ratio);

  const std::uint64_t AdaptRounds = counterOf(Doc, "runtime.adapt.rounds");
  if (AdaptRounds) {
    std::printf("\nadaptive     rounds %llu   remaps %llu (%.2f/s)   "
                "migrations %llu   fallbacks %llu\n",
                static_cast<unsigned long long>(AdaptRounds),
                static_cast<unsigned long long>(
                    counterOf(Doc, "runtime.adapt.remaps")),
                Rates.rate(Doc, "runtime.adapt.remaps", Uptime),
                static_cast<unsigned long long>(
                    counterOf(Doc, "runtime.adapt.migrations")),
                static_cast<unsigned long long>(
                    counterOf(Doc, "runtime.adapt.fallbacks")));
  }
  std::fflush(stdout);
}

} // namespace

int cta::serve::runTop(const TopOptions &Opts) {
  std::string Err;
  int Fd = connectToDaemon(Opts.SocketPath, &Err);
  if (Fd < 0) {
    std::fprintf(stderr, "cta top: %s\n", Err.c_str());
    return 1;
  }

  RateTracker Rates;
  int RC = 0;
  for (std::uint64_t Poll = 1; Opts.Count == 0 || Poll <= Opts.Count;
       ++Poll) {
    if (Poll > 1)
      std::this_thread::sleep_for(std::chrono::milliseconds(Opts.IntervalMs));

    const std::string Request =
        "{\"schema\":\"" + std::string(StatsSchema) + "\"}";
    std::string Payload;
    if (!writeFrame(Fd, Request, &Err) ||
        readFrame(Fd, Payload, &Err) != FrameStatus::Ok) {
      std::fprintf(stderr, "cta top: daemon went away%s%s\n",
                   Err.empty() ? "" : ": ", Err.c_str());
      RC = 1;
      break;
    }
    std::optional<JsonValue> Doc = parseJson(Payload, &Err);
    const JsonValue *Schema = Doc ? Doc->get("schema") : nullptr;
    if (!Doc || !Schema || Schema->asString() != "cta-serve-stats-v1") {
      std::fprintf(stderr,
                   "cta top: daemon answered with something that is not a "
                   "stats frame\n");
      RC = 1;
      break;
    }
    const double Uptime =
        Doc->get("uptime_seconds") ? Doc->get("uptime_seconds")->asNumber(0)
                                   : 0;
    render(*Doc, Opts, Rates, Poll);
    Rates.advance(*Doc, Uptime);
  }
  ::close(Fd);
  return RC;
}
