#include "netcore/timer_queue.h"

#include <algorithm>

namespace zdr {

TimerHeap::TimerId TimerHeap::arm(TimePoint deadline, Duration period,
                                  Callback cb, const char* tag) {
  TimerId id = nextId_++;
  push(Timer{deadline, period, id, std::move(cb), tag});
  alive_.insert(id);
  ++stats_.armed;
  return id;
}

bool TimerHeap::cancel(TimerId id) {
  if (alive_.erase(id) == 0) {
    return false;
  }
  ++stats_.cancelled;
  compact();
  return true;
}

void TimerHeap::push(Timer t) {
  heap_.push_back(std::move(t));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

TimerHeap::Timer TimerHeap::popTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Timer t = std::move(heap_.back());
  heap_.pop_back();
  return t;
}

// Lazy heap sweep: a heavy cancel workload (retry timers armed and
// cancelled per request) leaves dead entries in the heap until their
// deadlines pass. Rebuild when the dead entries both clear a fixed
// floor AND outnumber the live ones: each rebuild then reclaims at
// least half the heap (and ≥64 entries), making compaction amortized
// O(1) per cancel. A threshold on total size against the alive count
// would let a standing population of periodic timers — always alive,
// keeping the heap large — drag the trigger around: enough periodics
// and a modest dead backlog never compacts; few enough and
// near-threshold churn rebuilds the whole heap for a tiny reclaim.
void TimerHeap::compact() {
  size_t dead = heap_.size() - alive_.size();
  if (dead <= 64 || dead < alive_.size()) {
    return;
  }
  ++stats_.compactions;
  std::erase_if(heap_,
                [this](const Timer& t) { return !alive_.contains(t.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

int TimerHeap::msUntilNext(TimePoint now) const {
  if (heap_.empty()) {
    return kIdleTickMs;
  }
  auto dt = heap_.front().deadline - now;
  if (dt <= Clock::duration::zero()) {
    return 0;
  }
  auto ms = std::chrono::ceil<std::chrono::milliseconds>(dt).count();
  return static_cast<int>(std::min<long long>(ms, kIdleTickMs));
}

}  // namespace zdr
