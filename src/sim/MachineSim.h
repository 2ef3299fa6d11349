//===- sim/MachineSim.h - Multi-level cache hierarchy simulator *- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven simulator of a multicore's on-chip cache hierarchy, the
/// stand-in for the paper's three Intel machines and its Simics+GEMS setup
/// (Section 4.1). One Cache instance is created per node of the topology
/// tree, so shared caches are physically shared between the cores below
/// them. An access walks the core's path L1 -> ... -> LLC -> memory,
/// costs the latency of the level where it hits, and fills every missed
/// level on the path (inclusive hierarchy, no coherence protocol - see
/// DESIGN.md for the substitution rationale).
///
/// The hot path is precompiled: each core's path is a flat array of
/// (cache, level, line-size shift, latency) entries, and every level is
/// touched by a single Cache::probe() that detects the hit and installs
/// the victim in one set scan. accessReference() keeps the original
/// two-scan, topology-walking implementation for differential testing.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_MACHINESIM_H
#define CTA_SIM_MACHINESIM_H

#include "sim/Cache.h"
#include "topo/Topology.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cta {

class TraceLog;

/// Per-cache-level lookup/hit counters plus memory traffic.
struct SimStats {
  static constexpr unsigned MaxLevels = 8;

  struct LevelStats {
    std::uint64_t Lookups = 0;
    std::uint64_t Hits = 0;
    std::uint64_t misses() const { return Lookups - Hits; }
    double missRate() const {
      return Lookups == 0 ? 0.0
                          : static_cast<double>(misses()) / Lookups;
    }
  };

  std::array<LevelStats, MaxLevels + 1> Levels{}; // index = cache level
  std::uint64_t MemoryAccesses = 0;
  std::uint64_t TotalAccesses = 0;

  void clear() { *this = SimStats(); }

  /// Renders "L1 m=12.3% L2 m=45.6% ... mem=N" for logs.
  std::string str() const;
};

/// Statistics of one physical cache instance (one topology node), as
/// opposed to the per-level aggregates in SimStats. Shared caches show up
/// once here no matter how many cores sit below them.
struct CacheNodeStats {
  unsigned NodeId = 0;
  unsigned Level = 0;
  std::uint64_t Lookups = 0;
  std::uint64_t Hits = 0;
  std::uint64_t Evictions = 0;
};

/// The machine: one cache per topology node plus per-core access paths.
class MachineSim {
public:
  /// One precompiled level of a core's access path. Public so the engine
  /// (EpochEngine's batched row walk and shared-level replay) can drive
  /// the probes itself while keeping statistics bit-identical to
  /// access().
  struct PathEntry {
    Cache *C = nullptr;
    unsigned Level = 0;      // SimStats index
    unsigned Latency = 0;    // hit cost at this level
    unsigned LineShift = 0;  // log2(LineSize) when a power of two
    unsigned LineSize = 1;   // divisor fallback otherwise
    unsigned Node = 0;       // topology node id (tracing)
    bool UseShift = false;

    std::uint64_t lineOf(std::uint64_t Addr) const {
      return UseShift ? (Addr >> LineShift) : (Addr / LineSize);
    }
  };

private:
  const CacheTopology &Topo;
  std::vector<Cache> Caches;                   // indexed by node id - 1
  std::vector<std::vector<PathEntry>> Path;    // per core, L1 first
  std::vector<std::vector<unsigned>> PathNodes; // node ids (reference path)
  std::vector<unsigned> PrivateLen; // per core: leading single-core levels
  SimStats Stats;
  TraceLog *Log = nullptr;

public:
  explicit MachineSim(const CacheTopology &Topo);

  const CacheTopology &topology() const { return Topo; }
  const SimStats &stats() const { return Stats; }
  void clearStats() {
    Stats.clear();
    for (Cache &C : Caches)
      C.clearStats();
  }

  /// Per-cache-instance statistics, in topology node-id order.
  std::vector<CacheNodeStats> perCacheStats() const;

  /// Cold caches + fresh statistics.
  void reset();

  /// Attaches (or with nullptr detaches) an event trace log. The log is
  /// bound to this machine's topology; all subsequent access()/
  /// accessReference() calls emit their cache events into it.
  void setTraceLog(TraceLog *L);
  TraceLog *traceLog() const { return Log; }

  /// Performs one memory access by \p Core at byte address \p Addr.
  /// Returns the access latency in cycles. Writes currently behave like
  /// reads (allocate-on-write, no coherence). Each level is probed once:
  /// a miss installs the line while scanning for the hit.
  ///
  /// The trace check below is the whole off-mode tracing cost: one
  /// predicted-not-taken branch, with all event emission out of line in
  /// accessTraced().
  unsigned access(unsigned Core, std::uint64_t Addr, bool IsWrite) {
    (void)IsWrite; // writes allocate like reads; no coherence modelled
    assert(Core < Path.size() && "core id out of range");
    if (__builtin_expect(Log != nullptr, false))
      return accessTraced(Core, Addr);
    ++Stats.TotalAccesses;
    for (const PathEntry &E : Path[Core]) {
      ++Stats.Levels[E.Level].Lookups;
      std::uint64_t Line =
          E.UseShift ? (Addr >> E.LineShift) : (Addr / E.LineSize);
      if (E.C->probe(Line)) {
        ++Stats.Levels[E.Level].Hits;
        return E.Latency;
      }
    }
    ++Stats.MemoryAccesses;
    return Topo.memoryLatency();
  }

  /// The original naive implementation (two set scans per missed level,
  /// per-access topology-tree walks), retained as the differential-test
  /// oracle. Bit-identical statistics and cache state to access().
  unsigned accessReference(unsigned Core, std::uint64_t Addr, bool IsWrite);

  /// Cache instance of topology node \p NodeId (tests/inspection).
  const Cache &cacheOfNode(unsigned NodeId) const;

  /// The precompiled access path of \p Core, L1 first (engine internals).
  const std::vector<PathEntry> &corePath(unsigned Core) const {
    assert(Core < Path.size() && "core id out of range");
    return Path[Core];
  }

  /// Number of leading path levels of \p Core served by caches private to
  /// it (exactly one core below the node). Core counts are monotone up
  /// the tree, so every path is a private prefix followed by a shared
  /// suffix; the engine's phase 1 resolves the prefix per core and
  /// defers the suffix to its phase 2.
  unsigned privatePrefixLen(unsigned Core) const {
    assert(Core < PrivateLen.size() && "core id out of range");
    return PrivateLen[Core];
  }

  /// Memory access cost past the last level (engine internals).
  unsigned memoryLatency() const { return Topo.memoryLatency(); }

  /// Folds engine-side accumulated per-level statistics in (the engine's
  /// phases count privately, then merge; totals stay identical to
  /// per-access counting).
  void addStats(const SimStats &S) {
    for (unsigned L = 0; L != SimStats::MaxLevels + 1; ++L) {
      Stats.Levels[L].Lookups += S.Levels[L].Lookups;
      Stats.Levels[L].Hits += S.Levels[L].Hits;
    }
    Stats.MemoryAccesses += S.MemoryAccesses;
    Stats.TotalAccesses += S.TotalAccesses;
  }

private:
  /// Traced twin of the access() hot loop: same probes, same statistics,
  /// same result, plus one TraceLog call per level outcome.
  unsigned accessTraced(unsigned Core, std::uint64_t Addr);

  /// Traced twin of accessReference(). Emits the byte-identical event
  /// stream to accessTraced(): each missed level is filled immediately
  /// after its probe (instead of after the walk), which is
  /// state-equivalent because every path level is a distinct instance.
  unsigned accessReferenceTraced(unsigned Core, std::uint64_t Addr);
};

} // namespace cta

#endif // CTA_SIM_MACHINESIM_H
