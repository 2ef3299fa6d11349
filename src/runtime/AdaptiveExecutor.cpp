//===- runtime/AdaptiveExecutor.cpp - Feedback-driven execution -----------===//

#include "runtime/AdaptiveExecutor.h"

#include "obs/MetricSink.h"
#include "sim/AccessTrace.h"
#include "sim/TraceLog.h"
#include "support/ErrorHandling.h"

#include <algorithm>

using namespace cta;
using namespace cta::runtime;

namespace {

obs::Counter NumAdaptRounds("runtime.adapt.rounds");
obs::Counter NumAdaptRemaps("runtime.adapt.remaps");
obs::Counter NumAdaptMigrations("runtime.adapt.migrations");
obs::Counter NumAdaptWeightUpdates("runtime.adapt.weight_updates");
obs::Counter NumAdaptFallbacks("runtime.adapt.fallbacks");
obs::Counter NumTraceFeedbackRounds("runtime.adapt.trace_feedback_rounds");

/// A mapping the adaptive executor can drive: group-structured, one
/// round, no cross-core dependences (what the topology-aware pipeline
/// emits). Everything else runs statically.
bool adaptiveEligible(const Mapping &Map) {
  const bool PointToPoint =
      Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty();
  return !PointToPoint && !(Map.BarriersRequired && Map.NumRounds > 1) &&
         !Map.Groups.empty() && !Map.CoreGroups.empty();
}

} // namespace

ExecutionResult runtime::executeAdaptive(MachineSim &Machine,
                                         const AccessTrace &Trace,
                                         const Mapping &Map,
                                         const AdaptiveConfig &Cfg) {
  if (Map.NumCores != Machine.topology().numCores())
    reportFatalError("mapping core count does not match the machine");
  if (!Map.coversExactly(Trace.numIterations()))
    reportFatalError("mapping is not a partition of the iteration space");
  if (!adaptiveEligible(Map)) {
    ++NumAdaptFallbacks;
    return executeTrace(Machine, Trace, Map);
  }

  const unsigned NumCores = Map.NumCores;
  const unsigned Interval = std::max(1u, Cfg.Interval);
  const CacheTopology &Topo = Machine.topology();

  // Per-core group queues; Head marks the next group to run. Migrations
  // splice pending entries (index >= Head) between queues.
  std::vector<std::vector<std::uint32_t>> Queue = Map.CoreGroups;
  std::vector<std::size_t> Head(NumCores, 0);
  std::vector<std::uint64_t> Iters(NumCores, 0);

  std::vector<unsigned> Speed(NumCores, 100);
  for (unsigned C = 0; C != NumCores; ++C) {
    Speed[C] = Topo.coreSpeedPercent(C);
    if (Speed[C] == 0 && !Queue[C].empty())
      reportFatalError(("adaptive executor given work on disabled core " +
                        std::to_string(C) + " — run remapDisabledCores first")
                           .c_str());
  }

  // Remap decisions read global cross-core state at every commit point,
  // so the rounds run on the calling thread.
  EpochEngine Engine(Machine, Trace);
  const std::vector<std::uint64_t> &Cycle = Engine.Cycle;
  TraceLog *Log = Machine.traceLog();

  auto pendingItersOf = [&](unsigned C) {
    std::uint64_t P = 0;
    for (std::size_t I = Head[C], E = Queue[C].size(); I != E; ++I)
      P += Map.Groups[Queue[C][I]].size();
    return P;
  };

  std::unique_ptr<AdaptivePolicy> Policy = makeAdaptivePolicy(Cfg.Policy);

  // Baselines for per-round deltas.
  std::vector<std::uint64_t> PrevCycle(NumCores, 0), PrevIters(NumCores, 0);
  std::vector<CacheNodeStats> PrevCache = Machine.perCacheStats();
  // Trace-counter baselines, only touched on traced runs (Log != nullptr).
  std::vector<std::uint64_t> PrevTraceHits, PrevTraceFills;

  std::vector<std::vector<std::uint32_t>> RoundIters(NumCores);
  std::vector<std::span<const std::uint32_t>> Work(NumCores);
  unsigned Round = 0;
  for (;;) {
    // One round is one engine epoch: each core runs the iterations of its
    // next Interval groups from its own clock, so the commit point below
    // sees every core idle at a group boundary.
    bool AnyWork = false;
    for (unsigned C = 0; C != NumCores; ++C) {
      RoundIters[C].clear();
      for (unsigned G = 0; G != Interval && Head[C] != Queue[C].size();
           ++G, ++Head[C]) {
        const std::vector<std::uint32_t> &Group =
            Map.Groups[Queue[C][Head[C]]].Iterations;
        RoundIters[C].insert(RoundIters[C].end(), Group.begin(), Group.end());
        AnyWork = true;
      }
      Iters[C] += RoundIters[C].size();
      Work[C] = RoundIters[C];
    }
    if (!AnyWork)
      break;
    if (Log != nullptr)
      Log->setRound(Round);
    Engine.runEpoch(Work);
    ++NumAdaptRounds;
    ++Round;

    std::uint64_t TotalPending = 0;
    for (unsigned C = 0; C != NumCores; ++C)
      TotalPending += pendingItersOf(C);
    if (TotalPending == 0)
      break; // drained; nothing left to remap

    // Commit point: extract feedback, plan, migrate.
    Feedback FB;
    FB.Round = Round;
    FB.Cores.resize(NumCores);
    for (unsigned C = 0; C != NumCores; ++C) {
      CoreFeedback &F = FB.Cores[C];
      F.Cycles = Cycle[C];
      F.CyclesDelta = Cycle[C] - PrevCycle[C];
      F.ItersTotal = Iters[C];
      F.ItersDelta = Iters[C] - PrevIters[C];
      F.PendingIters = pendingItersOf(C);
      F.SpeedPercent = Speed[C];
    }
    std::vector<CacheNodeStats> CurCache = Machine.perCacheStats();
    FB.Caches = diffCacheStats(PrevCache, CurCache);
    if (Log != nullptr) {
      // Traced runs fold the TraceLog's per-node hit/fill movement into
      // the same snapshot. Counters never feed back into cycle math, so
      // traced and untraced adaptive runs stay cycle-identical.
      foldTraceCounts(FB.Caches, *Log, PrevTraceHits, PrevTraceFills);
      ++NumTraceFeedbackRounds;
    }
    PrevCache = std::move(CurCache);
    PrevCycle = Cycle;
    PrevIters = Iters;

    std::vector<std::vector<std::uint32_t>> Pending(NumCores);
    for (unsigned C = 0; C != NumCores; ++C)
      Pending[C].assign(Queue[C].begin() +
                            static_cast<std::ptrdiff_t>(Head[C]),
                        Queue[C].end());

    unsigned Applied = 0;
    for (const Migration &M : Policy->plan(FB, Pending, Map.Groups, Topo)) {
      if (M.From >= NumCores || M.To >= NumCores || M.From == M.To ||
          Speed[M.To] == 0)
        reportFatalError("adaptive policy planned an invalid migration");
      auto It = std::find(Queue[M.From].begin() +
                              static_cast<std::ptrdiff_t>(Head[M.From]),
                          Queue[M.From].end(), M.Group);
      if (It == Queue[M.From].end())
        reportFatalError("adaptive policy migrated a non-pending group");
      Queue[M.From].erase(It);
      Queue[M.To].push_back(M.Group);
      ++Applied;
    }
    if (Applied != 0) {
      ++NumAdaptRemaps;
      NumAdaptMigrations += Applied;
    }
  }
  NumAdaptWeightUpdates += Policy->weightUpdates();
  return Engine.finish();
}

void runtime::remapDisabledCores(Mapping &Map, const CacheTopology &Topo) {
  if (!Topo.hasDisabledCores())
    return;
  const unsigned N = Map.NumCores;
  if (N != Topo.numCores())
    reportFatalError("mapping core count does not match the machine");
  if (Map.Sync == SyncMode::PointToPoint && !Map.PointDeps.empty())
    reportFatalError(
        "point-to-point schedules cannot run with disabled cores; use "
        "barrier synchronization or an adaptive strategy");

  std::vector<unsigned> Live;
  for (unsigned C = 0; C != N; ++C)
    if (Topo.coreSpeedPercent(C) != 0)
      Live.push_back(C);
  if (Live.empty())
    reportFatalError("every core of the topology is disabled");

  // Choose each disabled core's target once: the live core sharing the
  // closest cache, ties broken toward the lightest load then the lowest
  // index. Load counts prior folds so two disabled siblings spread out.
  std::vector<std::uint64_t> Load(N, 0);
  for (unsigned C = 0; C != N; ++C)
    Load[C] = Map.CoreIterations[C].size();
  std::vector<unsigned> Target(N, N);
  for (unsigned D = 0; D != N; ++D) {
    if (Topo.coreSpeedPercent(D) != 0 || Map.CoreIterations[D].empty())
      continue;
    unsigned Best = Live[0];
    for (unsigned T : Live) {
      const unsigned LvlT = Topo.affinityLevel(D, T);
      const unsigned LvlB = Topo.affinityLevel(D, Best);
      if (LvlT < LvlB || (LvlT == LvlB && Load[T] < Load[Best]))
        Best = T;
    }
    Target[D] = Best;
    Load[Best] += Map.CoreIterations[D].size();
  }

  // Fold round by round: within each round, a target core runs its own
  // slice first, then the folded slices in disabled-core order.
  const bool Barriers = Map.BarriersRequired;
  const unsigned Rounds = Barriers ? Map.NumRounds : 1;
  auto slice = [&](unsigned C, unsigned R) {
    const auto &Iters = Map.CoreIterations[C];
    const std::uint32_t Begin =
        (Barriers && R > 0) ? Map.RoundEnd[C][R - 1] : 0;
    const std::uint32_t End =
        Barriers ? Map.RoundEnd[C][R]
                 : static_cast<std::uint32_t>(Iters.size());
    return std::make_pair(Begin, End);
  };

  std::vector<std::vector<std::uint32_t>> NewIters(N);
  std::vector<std::vector<std::uint32_t>> NewEnd(N);
  for (unsigned R = 0; R != Rounds; ++R) {
    for (unsigned C = 0; C != N; ++C) {
      if (Topo.coreSpeedPercent(C) == 0)
        continue;
      auto [B, E] = slice(C, R);
      NewIters[C].insert(NewIters[C].end(),
                         Map.CoreIterations[C].begin() + B,
                         Map.CoreIterations[C].begin() + E);
    }
    for (unsigned D = 0; D != N; ++D) {
      if (Target[D] == N)
        continue;
      auto [B, E] = slice(D, R);
      NewIters[Target[D]].insert(NewIters[Target[D]].end(),
                                 Map.CoreIterations[D].begin() + B,
                                 Map.CoreIterations[D].begin() + E);
    }
    for (unsigned C = 0; C != N; ++C)
      NewEnd[C].push_back(static_cast<std::uint32_t>(NewIters[C].size()));
  }
  Map.CoreIterations = std::move(NewIters);
  if (Barriers)
    Map.RoundEnd = std::move(NewEnd);

  // Group diagnostics move wholesale; concatenation order matches the
  // single-round iteration fold above, so group-structured mappings stay
  // consistent for the adaptive executor.
  if (!Map.CoreGroups.empty()) {
    for (unsigned D = 0; D != N; ++D) {
      if (Target[D] == N)
        continue;
      auto &Dst = Map.CoreGroups[Target[D]];
      auto &Src = Map.CoreGroups[D];
      Dst.insert(Dst.end(), Src.begin(), Src.end());
      Src.clear();
    }
  }
}
