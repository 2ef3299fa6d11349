//===- serve/Admission.h - Bounded fair admission control ------*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Admission control for the daemon's cold path. Warm requests are
/// answered inline by reader threads; everything that needs the simulator
/// passes through here first, giving the daemon two properties a bare
/// thread pool lacks:
///
///  * Bounded inflight: at most MaxInflight admitted-but-unfinished items
///    exist at once. When the bound is hit, admit() load-sheds with
///    Overloaded and the caller answers a typed in-band error instead of
///    letting queues (and client latency) grow without limit.
///  * Round-robin order: items queue per client key, and next() pops one
///    item at a time, taking the clients in turn. At --jobs > 1 the
///    daemon's dispatcher pops each item as soon as it is queued, so the
///    turn-taking only orders items queued at the same moment; at
///    --jobs 1 it runs each item inline and takes the backlog in turn.
///
/// The queued item is an opaque closure: the Server enqueues "dispatch
/// this pending request" thunks, and tests enqueue counters. Admission
/// only decides *when* and *in what order* items dispatch.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_SERVE_ADMISSION_H
#define CTA_SERVE_ADMISSION_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace cta::serve {

class AdmissionController {
public:
  using Item = std::function<void()>;

  enum class Admit {
    Admitted,   ///< Queued; a future next() will return it.
    Overloaded, ///< Load shed: MaxInflight admitted items are unfinished.
    Closed      ///< Shutting down; no new work is accepted.
  };

  /// \p MaxInflight bounds admitted-but-unreleased items; 0 sheds
  /// everything (useful to test overload handling deterministically).
  explicit AdmissionController(std::size_t MaxInflight)
      : MaxInflight(MaxInflight) {}

  /// Tries to admit one item for \p Client. Never blocks.
  Admit admit(const std::string &Client, Item Work);

  /// Blocks until an item is queued and pops it round-robin across
  /// clients. Returns an empty Item once the controller is closed and
  /// drained: the dispatcher's exit signal.
  Item next();

  /// Marks \p N admitted items finished, freeing inflight slots.
  void release(std::size_t N = 1);

  /// Stops admission; queued items still dispatch. Idempotent.
  void close();

  bool closed() const;

  /// Admitted-but-unreleased items (queued + dispatched).
  std::size_t inflight() const;

  /// Items rejected with Overloaded so far.
  std::uint64_t shedCount() const;

private:
  const std::size_t MaxInflight;
  mutable std::mutex Mutex;
  std::condition_variable Available;
  /// Per-client FIFO queues; entries are erased when they empty, so every
  /// present queue is non-empty.
  std::map<std::string, std::deque<Item>> Queues;
  std::string LastClient;
  std::size_t TotalQueued = 0;
  std::size_t Inflight = 0;
  std::uint64_t Shed = 0;
  bool IsClosed = false;
};

} // namespace cta::serve

#endif // CTA_SERVE_ADMISSION_H
