//===- sim/Cache.h - Set-associative LRU cache -----------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One set-associative, LRU-replacement cache instance. The multicore
/// simulator instantiates one per node of the cache hierarchy tree;
/// conflict and capacity behaviour in shared instances is what produces
/// the constructive/destructive sharing effects the paper's scheme
/// optimizes for (Section 2).
///
/// Storage is struct-of-arrays: one tag array and one LRU-stamp array,
/// set-major. A line is valid iff its stamp is nonzero (the tick counter
/// pre-increments, so live stamps are always >= 1), which removes the
/// per-line Valid flag, packs a set's tags contiguously, and lets the tag
/// scan vectorize: tags are unique within a set, so the match loop needs
/// no early exit and compiles to straight-line SIMD compares for the
/// common associativities.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SIM_CACHE_H
#define CTA_SIM_CACHE_H

#include "topo/Topology.h"

#include <cstdint>
#include <vector>

namespace cta {

/// Set-associative cache with true-LRU replacement (timestamp based).
class Cache {
  CacheParams Params;
  unsigned NumSets = 1;
  std::uint64_t SetMask = 0;   // NumSets - 1 when a power of two, else 0
  std::uint64_t FastModM = 0;  // Lemire fastmod constant for non-pow2 sets
  std::vector<std::uint64_t> Tags;   // NumSets * Assoc, set-major
  std::vector<std::uint64_t> Stamps; // LRU stamps; 0 means invalid
  std::uint64_t Tick = 0;

  // Per-instance statistics (this cache only; the per-level aggregates in
  // SimStats are counted by MachineSim). Evictions count replacements of
  // a *valid* line, so cold fills into empty ways are not evictions.
  std::uint64_t StatLookups = 0;
  std::uint64_t StatHits = 0;
  std::uint64_t StatEvictions = 0;

  std::size_t setOf(std::uint64_t LineAddr) const {
    if (SetMask != 0)
      return static_cast<std::size_t>(LineAddr & SetMask);
#ifdef __SIZEOF_INT128__
    // Lemire's fastmod: exact for 32-bit numerators, which covers every
    // line address below 2^32 (16 TiB of data at 4-byte lines); the rare
    // wider address falls back to the division.
    if (__builtin_expect((LineAddr >> 32) == 0, 1)) {
      std::uint64_t LowBits = FastModM * LineAddr;
      return static_cast<std::size_t>(
          (static_cast<unsigned __int128>(LowBits) * NumSets) >> 64);
    }
#endif
    return static_cast<std::size_t>(LineAddr % NumSets);
  }

public:
  explicit Cache(const CacheParams &Params);

  const CacheParams &params() const { return Params; }
  unsigned numSets() const { return NumSets; }

  /// Line address of a byte address under this cache's line size.
  std::uint64_t lineAddrOf(std::uint64_t ByteAddr) const {
    return ByteAddr / Params.LineSize;
  }

  /// The hot-path operation: one set scan that both detects a hit
  /// (refreshing the LRU stamp) and, on a miss, installs \p LineAddr over
  /// the set's LRU victim. Returns true on a hit. State-equivalent to
  /// access() followed by fill() on a miss, at half the scans.
  bool probe(std::uint64_t LineAddr) {
    ++StatLookups;
    const std::size_t Base = setOf(LineAddr) * Params.Assoc;
    std::uint64_t *T = &Tags[Base];
    std::uint64_t *S = &Stamps[Base];
    const unsigned Assoc = Params.Assoc;

    unsigned Match = Assoc;
    for (unsigned W = 0; W != Assoc; ++W)
      if (T[W] == LineAddr && S[W] != 0)
        Match = W;
    if (Match != Assoc) {
      S[Match] = ++Tick;
      ++StatHits;
      return true;
    }

    // Victim = way with the smallest stamp, earliest way on ties. Invalid
    // ways carry stamp 0, so "first invalid way wins" falls out of the
    // strict-< argmin.
    unsigned Victim = 0;
    for (unsigned W = 1; W != Assoc; ++W)
      if (S[W] < S[Victim])
        Victim = W;
    StatEvictions += S[Victim] != 0;
    T[Victim] = LineAddr;
    S[Victim] = ++Tick;
    return false;
  }

  /// probe() with victim reporting for the tracing layer: identical state
  /// and statistics transitions, but returns whether the miss replaced a
  /// valid line and which tag it held. Out of line on purpose — the
  /// untraced hot path above stays exactly as the optimizer sees it today.
  bool probeTraced(std::uint64_t LineAddr, bool &Evicted,
                   std::uint64_t &VictimTag);

  /// Probes \p LineAddr; on a hit refreshes its LRU stamp and returns true.
  /// With fill(), the reference two-scan path probe() collapses.
  bool access(std::uint64_t LineAddr);

  /// True if the line is resident (no LRU update; for tests/inspection).
  bool contains(std::uint64_t LineAddr) const;

  /// Installs \p LineAddr, evicting the set's LRU victim if needed.
  void fill(std::uint64_t LineAddr);

  /// fill() with victim reporting (tracing layer, reference engine path).
  void fillTraced(std::uint64_t LineAddr, bool &Evicted,
                  std::uint64_t &VictimTag);

  /// Invalidates everything (cold start).
  void flush();

  /// Number of valid lines (for tests).
  std::uint64_t residentLines() const;

  /// Per-instance statistics. access()+fill() count identically to
  /// probe(), so the reference and fast engines report the same values.
  std::uint64_t lookups() const { return StatLookups; }
  std::uint64_t hits() const { return StatHits; }
  std::uint64_t evictions() const { return StatEvictions; }

  /// Zeroes the per-instance statistics (cache contents untouched).
  void clearStats() { StatLookups = StatHits = StatEvictions = 0; }
};

} // namespace cta

#endif // CTA_SIM_CACHE_H
