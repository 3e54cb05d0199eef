// LoopRecorder: the metrics-side implementation of netcore's
// LoopObserver for one worker loop.
//
// EventLoop times its own poller and every callback dispatch but knows
// nothing about metrics; this adapter turns those timings into
//  * hdr histograms  — <worker>.loop.iter_us / .loop.poll_us /
//    .loop.dispatch_us (merged across workers by the /__stats
//    ".w<i>." stripping, like request_us);
//  * per-tag cumulative callback time — <worker>.loop.tag_us.<tag>
//    counters, the "who is eating this core" breakdown;
//  * flight-recorder events — kLoopStall whenever one dispatch blows
//    the stall budget (blaming the callback's tag), kLoopIteration /
//    kTimerFire for notably slow iterations and timer fires;
//  * engine counters — <worker>.loop.backend.* (which IoBackend runs
//    this loop and its syscall/SQE economics) and <worker>.timer.*
//    (timer-heap churn), published as deltas from the per-iteration
//    EngineSample.
//
// All callbacks run on the owning loop's thread, so the tag caches are
// plain maps; the ring write is the only cross-thread-visible effect.
#pragma once

#include <string>
#include <unordered_map>

#include "metrics/metrics.h"
#include "netcore/event_loop.h"

namespace zdr::fr {

class LoopRecorder final : public LoopObserver {
 public:
  // Ring slots are a fixed budget, so only notable timings become
  // discrete events; every timing lands in the histograms.
  static constexpr uint64_t kIterationEventFloorNs = 1'000'000;  // 1 ms
  static constexpr uint64_t kTimerEventFloorNs = 1'000'000;      // 1 ms

  // Resolves every handle up front (same idiom as Proxy::initCommon):
  // the per-dispatch path never takes the registry lock.
  LoopRecorder(MetricsRegistry& reg, const std::string& workerName,
               size_t ringCapacity = 4096);

  void onIteration(uint64_t pollNs, uint64_t workNs) noexcept override;
  void onDispatch(DispatchKind kind, const char* tag,
                  uint64_t durNs) noexcept override;
  void onStall(DispatchKind kind, const char* tag,
               uint64_t durNs) noexcept override;
  void onEngineSample(const EngineSample& sample) noexcept override;

  [[nodiscard]] EventRing* ring() noexcept { return ring_; }
  [[nodiscard]] uint32_t instance() const noexcept { return instance_; }

 private:
  uint32_t tagId(const char* tag);
  Counter& tagCounter(const char* tag);

  MetricsRegistry& reg_;
  std::string prefix_;  // "<worker>."
  EventRing* ring_;
  uint32_t instance_;
  HdrHistogram* iterUs_;
  HdrHistogram* pollUs_;
  HdrHistogram* dispatchUs_;
  Counter* stalls_;
  // Engine families. Backend/timer stats arrive as monotonic totals in
  // every EngineSample; the last_* copies turn them into counter
  // deltas (loop-thread-only state, like the tag caches).
  Gauge* backendIoUring_;
  Counter* backendWaitSyscalls_;
  Counter* backendSqes_;
  Counter* backendCqes_;
  Counter* backendPollRearms_;
  Counter* timerArmed_;
  Counter* timerCancelled_;
  Counter* timerFired_;
  Counter* timerCompactions_;
  IoBackendStats lastIo_;
  TimerStats lastTimers_;
  // Loop-thread-only caches; tags are string literals, keyed by
  // address (two spellings of the same text just intern twice).
  std::unordered_map<const char*, uint32_t> tagIds_;
  std::unordered_map<const char*, Counter*> tagUs_;
};

}  // namespace zdr::fr
