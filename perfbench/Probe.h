//===- perfbench/Probe.h - Host speed probe -------------------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of work that reads the host's current speed. Virtual
/// machines sharing a host run the same code up to 1.5x slower for minutes
/// at a time; run.py scales every end-to-end time by a reference over the
/// median probe time read beside the work, and reports the readings among
/// the host facts. The probe runs outside every timed window, and it is the
/// benchmark's own code: no change to the program moves it.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_PERFBENCH_PROBE_H
#define CTA_PERFBENCH_PROBE_H

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Times one round of fixed work: a pointer chase over a 4 MiB random cycle
/// (cache and memory latency, like the clusterer's heaps and the simulator's
/// cache tags) followed by dependent integer mixing (the core's speed).
class Probe {
  std::vector<std::uint32_t> Next;

public:
  Probe() : Next((4u << 20) / sizeof(std::uint32_t)) {
    std::uint64_t X = 0x9E3779B97F4A7C15ull;
    for (std::size_t I = 0; I != Next.size(); ++I)
      Next[I] = static_cast<std::uint32_t>(I);
    // Sattolo's shuffle: one cycle through every slot.
    for (std::size_t I = Next.size() - 1; I > 0; --I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      std::swap(Next[I], Next[X % I]);
    }
  }

  /// Seconds one round took (about 20 ms on an unloaded 2 GHz core).
  double run() const {
    const auto T0 = std::chrono::steady_clock::now();
    std::uint32_t P = 0;
    std::uint64_t H = 0;
    for (int K = 0; K != 200000; ++K) {
      P = Next[P];
      H = (H ^ P) * 0x9E3779B97F4A7C15ull;
    }
    for (int K = 0; K != 2000000; ++K)
      H = (H ^ (H >> 29)) * 0xBF58476D1CE4E5B9ull;
    const double S =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    // Keep the result observable so the loops are not folded away.
    asm volatile("" : : "r"(H) : "memory");
    return S;
  }
};

} // namespace perfbench

#endif // CTA_PERFBENCH_PROBE_H
