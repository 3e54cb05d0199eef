#include "metrics/loop_recorder.h"

namespace zdr::fr {

LoopRecorder::LoopRecorder(MetricsRegistry& reg,
                           const std::string& workerName,
                           size_t ringCapacity)
    : reg_(reg),
      prefix_(workerName + "."),
      ring_(&reg.eventRing(workerName, ringCapacity)),
      instance_(trace::internInstance(workerName)),
      iterUs_(&reg.hdr(prefix_ + "loop.iter_us")),
      pollUs_(&reg.hdr(prefix_ + "loop.poll_us")),
      dispatchUs_(&reg.hdr(prefix_ + "loop.dispatch_us")),
      stalls_(&reg.counter(prefix_ + "loop.stalls")),
      backendIoUring_(&reg.gauge(prefix_ + "loop.backend.io_uring")),
      backendWaitSyscalls_(
          &reg.counter(prefix_ + "loop.backend.wait_syscalls")),
      backendSqes_(&reg.counter(prefix_ + "loop.backend.sqes")),
      backendCqes_(&reg.counter(prefix_ + "loop.backend.cqes")),
      backendPollRearms_(&reg.counter(prefix_ + "loop.backend.poll_rearms")),
      timerArmed_(&reg.counter(prefix_ + "timer.armed")),
      timerCancelled_(&reg.counter(prefix_ + "timer.cancelled")),
      timerFired_(&reg.counter(prefix_ + "timer.fired")),
      timerCompactions_(&reg.counter(prefix_ + "timer.compactions")) {}

void LoopRecorder::onEngineSample(const EngineSample& sample) noexcept {
  backendIoUring_->set(sample.backend[0] == 'i' ? 1.0 : 0.0);
  backendWaitSyscalls_->add(sample.io.waitSyscalls - lastIo_.waitSyscalls);
  backendSqes_->add(sample.io.sqesSubmitted - lastIo_.sqesSubmitted);
  backendCqes_->add(sample.io.cqesReaped - lastIo_.cqesReaped);
  backendPollRearms_->add(sample.io.pollRearms - lastIo_.pollRearms);
  lastIo_ = sample.io;
  timerArmed_->add(sample.timers.armed - lastTimers_.armed);
  timerCancelled_->add(sample.timers.cancelled - lastTimers_.cancelled);
  timerFired_->add(sample.timers.fired - lastTimers_.fired);
  timerCompactions_->add(sample.timers.compactions -
                         lastTimers_.compactions);
  lastTimers_ = sample.timers;
}

void LoopRecorder::onIteration(uint64_t pollNs, uint64_t workNs) noexcept {
  iterUs_->record(static_cast<double>(pollNs + workNs) / 1000.0);
  pollUs_->record(static_cast<double>(pollNs) / 1000.0);
  if (workNs >= kIterationEventFloorNs) {
    recordEvent(ring_, EventKind::kLoopIteration, instance_, workNs, 0,
                pollNs);
  }
}

void LoopRecorder::onDispatch(DispatchKind kind, const char* tag,
                              uint64_t durNs) noexcept {
  dispatchUs_->record(static_cast<double>(durNs) / 1000.0);
  tagCounter(tag).add(durNs / 1000);  // cumulative µs behind this tag
  if (kind == DispatchKind::kTimer && durNs >= kTimerEventFloorNs) {
    recordEvent(ring_, EventKind::kTimerFire, instance_, durNs, 0,
                tagId(tag));
  }
}

void LoopRecorder::onStall(DispatchKind kind, const char* tag,
                           uint64_t durNs) noexcept {
  (void)kind;
  stalls_->add();
  recordEvent(ring_, EventKind::kLoopStall, instance_, durNs, 0,
              tagId(tag));
}

uint32_t LoopRecorder::tagId(const char* tag) {
  auto it = tagIds_.find(tag);
  if (it != tagIds_.end()) {
    return it->second;
  }
  uint32_t id = trace::internInstance(tag);
  tagIds_.emplace(tag, id);
  return id;
}

Counter& LoopRecorder::tagCounter(const char* tag) {
  auto it = tagUs_.find(tag);
  if (it != tagUs_.end()) {
    return *it->second;
  }
  Counter* c = &reg_.counter(prefix_ + "loop.tag_us." + tag);
  tagUs_.emplace(tag, c);
  return *c;
}

}  // namespace zdr::fr
