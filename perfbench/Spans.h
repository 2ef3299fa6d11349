//===- perfbench/Spans.h - In-memory span recorder for traced runs -*- C++ -*-===//
//
// Part of the CTA project: cache-topology-aware computation mapping.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own tracing: a span per call into a module's public
/// entry point, recorded from the benchmark's files (the program itself is
/// not instrumented). Each span keeps its name, wall start/end, thread CPU
/// start/end, parent, task id and a few counts measured at the boundary.
/// Spans live in memory and are written out once, at exit. Self time (a
/// span's CPU minus what its children cover) is derived by run.py.
///
/// Traced phases run on one thread, so CLOCK_THREAD_CPUTIME_ID is exact
/// for every span.
///
//===----------------------------------------------------------------------===//

#ifndef CTA_PERFBENCH_SPANS_H
#define CTA_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline double threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + Ts.tv_nsec * 1e-9;
}

inline double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string Name;
  double Start = 0, End = 0;       // steady clock, seconds
  double CpuStart = 0, CpuEnd = 0; // thread CPU, seconds
  int Parent = -1;
  int Task = -1;
  std::map<std::string, double> Counts;
};

class Tracer {
  std::vector<SpanRecord> Spans;
  int Open = -1;
  int Task = -1;

public:
  void setTask(int Id) { Task = Id; }

  int open(const char *Name) {
    SpanRecord R;
    R.Name = Name;
    R.Parent = Open;
    R.Task = Task;
    R.Start = monotonicSeconds();
    R.CpuStart = threadCpuSeconds();
    Spans.push_back(std::move(R));
    Open = static_cast<int>(Spans.size()) - 1;
    return Open;
  }

  void close(int Id) {
    SpanRecord &R = Spans[Id];
    R.CpuEnd = threadCpuSeconds();
    R.End = monotonicSeconds();
    Open = R.Parent;
  }

  void count(int Id, const char *Key, double V) { Spans[Id].Counts[Key] += V; }

  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("[", F);
    for (std::size_t I = 0; I != Spans.size(); ++I) {
      const SpanRecord &R = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"cpu\":%.9f,\"parent\":%d,\"task\":%d,\"counts\":{",
                   I ? "," : "", R.Name.c_str(), R.Start, R.End,
                   R.CpuEnd - R.CpuStart, R.Parent, R.Task);
      bool First = true;
      for (const auto &[K, V] : R.Counts) {
        std::fprintf(F, "%s\"%s\":%.17g", First ? "" : ",", K.c_str(), V);
        First = false;
      }
      std::fputs("}}", F);
    }
    std::fputs("\n]\n", F);
    return std::fclose(F) == 0;
  }
};

/// RAII span; a null tracer makes it free, so one code path serves the
/// traced and untraced replays. Counts may be added after close().
class Span {
  Tracer *T;
  int Id = -1;
  bool Open = false;

public:
  Span(Tracer *T, const char *Name) : T(T) {
    if (T) {
      Id = T->open(Name);
      Open = true;
    }
  }
  ~Span() { close(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void close() {
    if (Open)
      T->close(Id);
    Open = false;
  }
  void count(const char *Key, double V) {
    if (T)
      T->count(Id, Key, V);
  }
};

} // namespace perfbench

#endif // CTA_PERFBENCH_SPANS_H
