//===- serve/Admission.cpp - Bounded fair admission control ---------------===//

#include "serve/Admission.h"

#include <algorithm>

using namespace cta::serve;

AdmissionController::Admit AdmissionController::admit(const std::string &Client,
                                                      Item Work) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (IsClosed)
      return Admit::Closed;
    if (Inflight >= MaxInflight) {
      ++Shed;
      return Admit::Overloaded;
    }
    ++Inflight;
    ++TotalQueued;
    Queues[Client].push_back(std::move(Work));
  }
  Available.notify_one();
  return Admit::Admitted;
}

AdmissionController::Item AdmissionController::next() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Available.wait(Lock, [this] { return TotalQueued > 0 || IsClosed; });
  if (TotalQueued == 0)
    return {}; // closed and drained: the dispatcher's exit signal
  // The first non-empty client after LastClient in key order.
  auto It = Queues.upper_bound(LastClient);
  if (It == Queues.end())
    It = Queues.begin();
  LastClient = It->first;
  Item Work = std::move(It->second.front());
  It->second.pop_front();
  if (It->second.empty())
    Queues.erase(It);
  --TotalQueued;
  return Work;
}

void AdmissionController::release(std::size_t N) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Inflight -= std::min(N, Inflight);
}

void AdmissionController::close() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    IsClosed = true;
  }
  Available.notify_all();
}

bool AdmissionController::closed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return IsClosed;
}

std::size_t AdmissionController::inflight() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Inflight;
}

std::uint64_t AdmissionController::shedCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Shed;
}
