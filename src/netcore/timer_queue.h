// TimerHeap: the timer queue under EventLoop.
//
// A binary min-heap on deadline. Cancellation is lazy: the alive-set
// entry goes immediately, the heap entry stays until it pops or a
// compaction sweeps it. EventLoop owns one by value and calls it
// directly.
//
// The heap preserves the EventLoop timer contract pinned by the
// regression tests: a periodic timer is re-armed BEFORE its callback
// runs (so cancelling it from inside the callback stops it for good),
// a fired one-shot leaves the bookkeeping before its callback runs (so
// cancelling yourself is a no-op), and cancellation from inside any
// firing callback — including for timers due in the same batch — is
// safe.
//
// A due-now timer fires on the next loop iteration, with no rounding
// to a tick: the closed-loop load generators re-launch every request
// through runAfter(0).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

namespace zdr {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = std::chrono::milliseconds;

// Monotonic counters for the <worker>.timer.* metrics family and the
// engine bench. `compactions` counts heap rebuilds.
struct TimerStats {
  uint64_t armed = 0;
  uint64_t cancelled = 0;
  uint64_t fired = 0;
  uint64_t compactions = 0;
};

class TimerHeap {
 public:
  using TimerId = uint64_t;
  using Callback = std::function<void()>;

  // The longest the loop blocks when no timer is due sooner; keeps
  // stop() latency bounded.
  static constexpr int kIdleTickMs = 100;

  // Ids are unique per heap and never reused.
  TimerId arm(TimePoint deadline, Duration period, Callback cb,
              const char* tag);
  // Returns false if `id` is unknown (already fired one-shot,
  // cancelled, or never armed).
  bool cancel(TimerId id);
  // Fires everything due at `now`, earliest deadline first, as
  // fire(tag, cb). The Callback reference stays valid for the call
  // even if the callback cancels or re-arms any timer, itself
  // included.
  template <typename Fire>
  void advance(TimePoint now, Fire&& fire);
  // Whole milliseconds until the earliest deadline, rounded UP (a
  // truncated 0.9 ms would be a 0 ms wait, and the loop would spin
  // through the last sub-millisecond of every deadline), capped at
  // kIdleTickMs.
  [[nodiscard]] int msUntilNext(TimePoint now) const;
  // Armed timers that have neither fired (one-shots) nor been
  // cancelled.
  [[nodiscard]] size_t activeCount() const noexcept { return alive_.size(); }
  // Heap entries, including dead ones awaiting reclamation.
  [[nodiscard]] size_t pendingEntries() const noexcept {
    return heap_.size();
  }
  [[nodiscard]] const TimerStats& stats() const noexcept { return stats_; }

 private:
  struct Timer {
    TimePoint deadline;
    Duration period{0};  // zero ⇒ one-shot
    TimerId id = 0;
    Callback cb;
    const char* tag = "timer";
  };
  // std::*_heap comparator: earliest deadline on top.
  struct Later {
    bool operator()(const Timer& a, const Timer& b) const {
      return a.deadline > b.deadline;
    }
  };

  void push(Timer t);
  // Moves the earliest entry out of the heap.
  Timer popTop();
  void compact();

  std::vector<Timer> heap_;
  // Membership ⇒ alive. Erased on cancel and on one-shot fire, so the
  // set never outgrows the armed-timer count; stale heap entries are
  // skipped on pop and swept by compact() when they dominate.
  std::unordered_set<TimerId> alive_;
  TimerId nextId_ = 1;
  TimerStats stats_;
};

template <typename Fire>
void TimerHeap::advance(TimePoint now, Fire&& fire) {
  while (!heap_.empty() && heap_.front().deadline <= now) {
    Timer t = popTop();
    if (t.period.count() > 0) {
      if (alive_.count(t.id) == 0) {
        continue;  // cancelled; its set entry is already gone
      }
      // Re-arm BEFORE dispatch: a callback cancelling its own periodic
      // timer must find it armed (and kill it for good).
      push(Timer{now + t.period, t.period, t.id, t.cb, t.tag});
    } else if (alive_.erase(t.id) == 0) {
      continue;  // cancelled
    }
    ++stats_.fired;
    fire(t.tag, t.cb);
  }
}

}  // namespace zdr
