// TimerHeap unit tests on synthetic time (explicit `now` passed to
// advance/msUntilNext): mass-cancel during a drain, arming from inside
// a firing callback, periodic re-arm and self-cancel, spent-id
// cancels, the wait rounding, and the lazy-compaction bound. The
// wall-clock timer contract over the live loop is pinned by
// event_loop_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "netcore/timer_queue.h"

namespace zdr {
namespace {

// Plain dispatch: what EventLoop's fire thunk does minus the observer.
void fire(const char*, const TimerHeap::Callback& cb) { cb(); }

TEST(TimerHeapTest, OneShotFiresAtItsDeadlineAndNeverEarly) {
  TimerHeap h;
  TimePoint epoch = Clock::now();
  int fired = 0;
  h.arm(epoch + Duration{50}, Duration{0}, [&] { ++fired; }, "t");
  h.advance(epoch + std::chrono::microseconds(49'999), fire);
  EXPECT_EQ(fired, 0);
  h.advance(epoch + Duration{50}, fire);
  EXPECT_EQ(fired, 1);
  h.advance(epoch + Duration{500}, fire);
  EXPECT_EQ(fired, 1);  // one-shot
  EXPECT_EQ(h.activeCount(), 0u);
  EXPECT_EQ(h.pendingEntries(), 0u);
}

TEST(TimerHeapTest, MassCancelDuringDrainSkipsTheCancelled) {
  // One firing callback cancels every other timer due in the SAME
  // batch: the drain must notice each cancel and fire none of them.
  TimerHeap h;
  TimePoint epoch = Clock::now();
  std::vector<TimerHeap::TimerId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(h.arm(epoch + Duration{10}, Duration{0},
                        [&] {
                          ++fired;
                          if (fired == 1) {
                            for (auto id : ids) {
                              h.cancel(id);  // self-cancel no-ops
                            }
                          }
                        },
                        "t"));
  }
  h.advance(epoch + Duration{10}, fire);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(h.activeCount(), 0u);
  EXPECT_EQ(h.stats().fired, 1u);
  EXPECT_EQ(h.stats().cancelled, 99u);  // the firing one was already out
  h.advance(epoch + Duration{1'000}, fire);
  EXPECT_EQ(fired, 1);
}

TEST(TimerHeapTest, TimerArmedFromFiringCallbackFiresAtItsOwnDeadline) {
  TimerHeap h;
  TimePoint epoch = Clock::now();
  int first = 0;
  int second = 0;
  h.arm(epoch + Duration{10}, Duration{0},
        [&] {
          ++first;
          h.arm(epoch + Duration{11}, Duration{0}, [&] { ++second; },
                "inner");
        },
        "outer");
  h.advance(epoch + Duration{10}, fire);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  h.advance(epoch + std::chrono::microseconds(10'999), fire);
  EXPECT_EQ(second, 0);
  h.advance(epoch + Duration{11}, fire);
  EXPECT_EQ(second, 1);
}

TEST(TimerHeapTest, PeriodicRearmsBeforeDispatchAndSelfCancelStopsIt) {
  TimerHeap h;
  TimePoint epoch = Clock::now();
  int fired = 0;
  TimerHeap::TimerId id = 0;
  id = h.arm(epoch + Duration{5}, Duration{3},
             [&] {
               ++fired;
               if (fired == 3) {
                 // Re-armed before this dispatch, so the cancel finds
                 // it and kills the next instance.
                 EXPECT_TRUE(h.cancel(id));
               }
             },
             "p");
  h.advance(epoch + Duration{5}, fire);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(h.activeCount(), 1u);  // still armed
  h.advance(epoch + Duration{8}, fire);
  EXPECT_EQ(fired, 2);
  h.advance(epoch + Duration{11}, fire);
  EXPECT_EQ(fired, 3);
  h.advance(epoch + Duration{100}, fire);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(h.activeCount(), 0u);
}

TEST(TimerHeapTest, CancelReturnsFalseForUnknownOrSpentIds) {
  TimerHeap h;
  TimePoint epoch = Clock::now();
  int fired = 0;
  auto id = h.arm(epoch + Duration{5}, Duration{0}, [&] { ++fired; }, "t");
  EXPECT_FALSE(h.cancel(id + 1000));
  h.advance(epoch + Duration{5}, fire);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(h.cancel(id));  // already fired
  auto other = h.arm(epoch + Duration{10}, Duration{0}, [] {}, "t");
  EXPECT_NE(other, id);  // ids are never reused
  EXPECT_TRUE(h.cancel(other));
  EXPECT_FALSE(h.cancel(other));  // already cancelled
}

TEST(TimerHeapTest, ActiveCountTracksArmCancelFireChurn) {
  // 300 one-shots across 60 ms, every third cancelled, time advanced in
  // two halves: the active count is exact throughout, and pending
  // entries only ever over-count it by the dead backlog.
  TimerHeap h;
  TimePoint epoch = Clock::now();
  std::vector<TimerHeap::TimerId> ids;
  int fired = 0;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(h.arm(epoch + Duration{1 + i % 60}, Duration{0},
                        [&] { ++fired; }, "t"));
  }
  for (size_t i = 0; i < ids.size(); i += 3) {
    h.cancel(ids[i]);
  }
  EXPECT_EQ(h.activeCount(), 200u);
  EXPECT_GE(h.pendingEntries(), h.activeCount());

  h.advance(epoch + Duration{30}, fire);
  EXPECT_EQ(static_cast<size_t>(fired) + h.activeCount(), 200u);
  h.advance(epoch + Duration{60}, fire);
  EXPECT_EQ(fired, 200);
  EXPECT_EQ(h.activeCount(), 0u);
  EXPECT_EQ(h.pendingEntries(), 0u);
}

TEST(TimerHeapTest, MsUntilNextRoundsUpAndCapsAtTheIdleTick) {
  TimerHeap h;
  TimePoint epoch = Clock::now();
  EXPECT_EQ(h.msUntilNext(epoch), TimerHeap::kIdleTickMs);
  h.arm(epoch + Duration{7}, Duration{0}, [] {}, "t");
  EXPECT_EQ(h.msUntilNext(epoch), 7);
  // 0.9 ms left must wait 1 ms, not 0: a zero timeout busy-spins the
  // loop until the deadline passes.
  EXPECT_EQ(h.msUntilNext(epoch + std::chrono::microseconds(6'100)), 1);
  EXPECT_EQ(h.msUntilNext(epoch + std::chrono::microseconds(5'999)), 2);
  EXPECT_EQ(h.msUntilNext(epoch + Duration{7}), 0);  // due: no wait
  EXPECT_EQ(h.msUntilNext(epoch + Duration{9}), 0);  // overdue
  TimerHeap far;
  far.arm(epoch + Duration{60'000}, Duration{0}, [] {}, "t");
  EXPECT_EQ(far.msUntilNext(epoch), TimerHeap::kIdleTickMs);
}

// Regression: the heap's lazy compaction keyed off TOTAL size vs the
// alive count, so a standing population of periodic timers (always
// alive, never popping) dragged the trigger with it — cancel-heavy
// churn could pile up dead entries proportional to the periodic
// population before any sweep, and each sweep rebuilt the periodic
// entries too for a tiny reclaim. The dead-count threshold
// (dead > 64 && dead ≥ alive) keeps pending entries bounded and every
// rebuild reclaiming at least half the heap.
TEST(TimerHeapTest, CompactionStaysBoundedUnderPeriodicDominatedChurn) {
  TimerHeap heap;
  TimePoint epoch = Clock::now();
  // Standing periodics, far enough out that advance() never pops them.
  for (int i = 0; i < 100; ++i) {
    heap.arm(epoch + std::chrono::hours(1), Duration{1000}, [] {}, "p");
  }
  // Retry-timer style churn: armed and cancelled before ever firing.
  for (int i = 0; i < 10'000; ++i) {
    auto id = heap.arm(epoch + std::chrono::hours(2), Duration{0}, [] {},
                       "retry");
    heap.cancel(id);
    // Dead entries may accumulate, but never past max(64, alive):
    // the compaction threshold is exact, not amortized-eventual.
    ASSERT_LE(heap.pendingEntries(),
              heap.activeCount() + std::max<size_t>(65, heap.activeCount()))
        << "dead backlog escaped the compaction threshold at churn " << i;
  }
  EXPECT_EQ(heap.activeCount(), 100u);
  EXPECT_GT(heap.stats().compactions, 0u);
  // Each sweep reclaims ≥half the heap, so 10k cancels cannot possibly
  // need more than 10k/64 sweeps (it is far fewer in practice).
  EXPECT_LT(heap.stats().compactions, 10'000u / 64u + 1);
}

}  // namespace
}  // namespace zdr
