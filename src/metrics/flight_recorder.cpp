#include "metrics/flight_recorder.h"

namespace zdr::fr {

namespace {

std::atomic<bool> g_recorderEnabled{true};

}  // namespace

void setRecorderEnabled(bool on) {
  g_recorderEnabled.store(on, std::memory_order_relaxed);
}

bool recorderEnabled() {
  return g_recorderEnabled.load(std::memory_order_relaxed);
}

const char* eventKindName(EventKind k) {
  switch (k) {
    case EventKind::kLoopIteration:
      return "loop.iteration";
    case EventKind::kLoopStall:
      return "loop.stall";
    case EventKind::kTimerFire:
      return "loop.timer_fire";
    case EventKind::kAccept:
      return "accept";
    case EventKind::kFaultInjected:
      return "fault.injected";
    case EventKind::kDisruption:
      return "disruption";
  }
  return "unknown";
}

const char* disruptionCauseName(DisruptionCause c) {
  switch (c) {
    case DisruptionCause::kNone:
      return "unattributed";
    case DisruptionCause::kResetOnRestart:
      return "reset_on_restart";
    case DisruptionCause::kTrunkAbort:
      return "trunk_abort";
    case DisruptionCause::kDrainDeadline:
      return "drain_deadline";
    case DisruptionCause::kShed:
      return "shed";
    case DisruptionCause::kBreaker:
      return "breaker";
    case DisruptionCause::kTimeout:
      return "timeout";
    case DisruptionCause::kFaultInjected:
      return "fault_injected";
  }
  return "unattributed";
}

const char* releasePhaseName(ReleasePhase p) {
  switch (p) {
    case ReleasePhase::kSteady:
      return "steady";
    case ReleasePhase::kDrain:
      return "drain";
    case ReleasePhase::kHardDrain:
      return "hard_drain";
    case ReleasePhase::kShutdown:
      return "shutdown";
  }
  return "steady";
}

}  // namespace zdr::fr
