//===- obs/MetricSink.h - Scoped, hierarchical metric sinks ----*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate every layer writes into. A MetricSink is a
/// named-counter map plus a list of phase records; sinks form a rollup
/// hierarchy (run -> grid -> process): when a sink is destroyed (or
/// rollUp() is called) its counters are merged into its parent, so the
/// process-level root sink always ends up with every counter bumped in
/// the process — while every run still owns a private, correctly
/// attributed view of its own counters.
///
/// Attribution is scope based, not parameter based: installing a
/// MetricScope makes a sink the calling thread's *current* sink, and all
/// counter bumps (obs::Counter) and phase records (ObsScope) on that
/// thread land there until the scope closes.
/// This is what makes per-run attribution work on the exec/ thread pool —
/// each worker thread wraps the task it executes in the task's own sink,
/// and concurrent runs never interleave their counters.
///
/// Thread safety: every sink operation takes the sink's mutex, so a sink
/// may be read (snapshot(), lookup()) while another thread writes it, and
/// parent rollup is safe against concurrent child rollups. The current
/// sink pointer itself is thread local and needs no locking.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_OBS_METRICSINK_H
#define CTA_OBS_METRICSINK_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cta::obs {

/// One traced phase: name, start time on the process-uptime clock
/// (obs::processUptimeSeconds, so phases from different sinks share one
/// timeline), wall duration, the process's peak RSS when the phase
/// closed, and the counter deltas the current sink saw while the phase
/// was open. Recorded by ObsScope; serialized into run artifacts and
/// folded into Chrome trace exports.
struct PhaseRecord {
  std::string Name;
  double StartSeconds = 0.0;
  double Seconds = 0.0;
  std::int64_t PeakRssKb = 0;
  std::map<std::string, std::uint64_t> CounterDeltas;
};

/// A scoped counter/phase sink with hierarchical rollup.
class MetricSink {
  mutable std::mutex Mutex;
  MetricSink *Parent; // rollup target; null for the root
  std::map<std::string, std::uint64_t> Counters;
  std::vector<PhaseRecord> Phases;
  bool RolledUp = false;

public:
  /// A sink rolling up into \p Parent (pass nullptr for a free-standing
  /// sink, e.g. in tests). The parent must outlive the child.
  explicit MetricSink(MetricSink *Parent = nullptr) : Parent(Parent) {}

  MetricSink(const MetricSink &) = delete;
  MetricSink &operator=(const MetricSink &) = delete;

  /// Rolls remaining counters into the parent.
  ~MetricSink() { rollUp(); }

  void add(const std::string &Name, std::uint64_t Delta) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters[Name] += Delta;
  }

  std::uint64_t lookup(const std::string &Name) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(Mutex);
    Counters.clear();
    Phases.clear();
  }

  /// Consistent copy of all counters at one instant.
  std::map<std::string, std::uint64_t> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Counters;
  }

  void recordPhase(PhaseRecord Phase) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Phases.push_back(std::move(Phase));
  }

  std::vector<PhaseRecord> phases() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Phases;
  }

  /// Merges this sink's counters into its parent (once; phases stay local
  /// — a grid aggregates its runs' phases explicitly, never by
  /// concatenation). Idempotent; the destructor calls it.
  void rollUp();

  /// Prints all counters to stderr, one "value name" line each.
  void dump() const;

  /// The process-level root sink, the rollup target of last resort and
  /// the default current sink of every thread.
  static MetricSink &root();

  /// The calling thread's current sink (root() when no MetricScope is
  /// installed).
  static MetricSink &current();
};

/// RAII: installs a sink as the calling thread's current sink for the
/// scope's lifetime; restores the previous current sink on destruction.
/// Scopes nest.
class MetricScope {
  MetricSink *Prev;

public:
  explicit MetricScope(MetricSink &Sink);
  ~MetricScope();

  MetricScope(const MetricScope &) = delete;
  MetricScope &operator=(const MetricScope &) = delete;
};

/// A named counter bound to the thread's current sink at bump time.
/// File-local counters in algorithm code bump these, and attribution
/// follows whatever MetricScope the executing thread is under.
class Counter {
  const char *Name;

public:
  constexpr explicit Counter(const char *Name) : Name(Name) {}

  Counter &operator+=(std::uint64_t Delta) {
    MetricSink::current().add(Name, Delta);
    return *this;
  }
  Counter &operator++() {
    MetricSink::current().add(Name, 1);
    return *this;
  }
  /// Reads the counter in the thread's current sink (not any rollup).
  std::uint64_t value() const { return MetricSink::current().lookup(Name); }
};

} // namespace cta::obs

#endif // CTA_OBS_METRICSINK_H
