// Always-on flight recorder: per-worker event rings + taxonomies.
//
// The span rings (trace.h) answer "where did a surviving request spend
// its time"; they cannot answer "why was THIS request disrupted" or
// "what was the worker's event loop doing at that instant". This module
// adds the missing layer: a fixed-budget binary ring per worker that
// continuously captures a small event taxonomy — loop iterations and
// stalls, timer fires, accepts, fault injections, and client-visible
// disruptions with an explicit cause — in the same SeqlockRing
// (seqlock_ring.h) the span sinks use, so snapshots never stop writers
// and the record path never locks or allocates. Drain and takeover
// edges are not ring events: the release timeline (timeline.h) records
// each one once, on the same clock.
//
// The disruption taxonomy mirrors the paper's evaluation axes
// (Figs. 2/10): every client-visible error, reset or shed is
// attributed to one cause and stamped with the proxy's release phase
// at the moment it happened, so a post-hoc capture can be joined with
// the release timeline for per-phase × per-cause counts
// (scripts/attribute_disruptions.py).
#pragma once

#include <array>
#include <cstdint>

#include "metrics/seqlock_ring.h"
#include "metrics/trace.h"

namespace zdr::fr {

// --------------------------------------------------------- taxonomies

// Values are stable in archived captures. 5 and 6 are retired (drain
// and takeover edges belong to the release timeline) — do not reuse.
enum class EventKind : uint8_t {
  kLoopIteration = 1,  // one loop iteration whose dispatch work was slow
  kLoopStall = 2,      // one callback dispatch exceeded the stall budget
  kTimerFire = 3,      // a timer callback ran (slow fires only, see
                       // LoopRecorder::kTimerEventFloorNs)
  kAccept = 4,         // a listener accepted a connection
  kFaultInjected = 7,  // the fault layer injected a fault
  kDisruption = 8,     // client-visible error/reset/shed, with a cause
};
const char* eventKindName(EventKind k);

// Why a client-visible disruption happened. Matches the paper's
// disruption axes; `kNone` is never recorded — a decoded event with
// cause 0 is "unattributed" and the attribution checker fails on it.
enum class DisruptionCause : uint8_t {
  kNone = 0,
  kResetOnRestart = 1,  // conn reset because the instance is going away
  kTrunkAbort = 2,      // upstream trunk/stream died under the request
  kDrainDeadline = 3,   // drain deadline forced the close
  kShed = 4,            // admission control shed (fast 503)
  kBreaker = 5,         // breaker/budget left no backend to serve it
  kTimeout = 6,         // request deadline expired
  kFaultInjected = 7,   // a scripted fault on the serving path
};
const char* disruptionCauseName(DisruptionCause c);

// The recording proxy's own release phase when the event fired. The
// exporter overlays the fleet timeline for the global picture; this is
// the local, always-consistent view (derived from the proxy's
// draining/hard-draining/terminated state, no clock joins needed).
enum class ReleasePhase : uint8_t {
  kSteady = 0,
  kDrain = 1,      // soft drain (zdr_drain window)
  kHardDrain = 2,  // hard drain (DCR solicitation window)
  kShutdown = 3,   // terminating / restart in progress
};
const char* releasePhaseName(ReleasePhase p);

// kDisruption events pack (cause, phase) into `detail`.
constexpr uint64_t packCausePhase(DisruptionCause c, ReleasePhase p) {
  return (static_cast<uint64_t>(c) << 8) | static_cast<uint64_t>(p);
}
constexpr DisruptionCause causeOf(uint64_t detail) {
  return static_cast<DisruptionCause>((detail >> 8) & 0xff);
}
constexpr ReleasePhase phaseOf(uint64_t detail) {
  return static_cast<ReleasePhase>(detail & 0xff);
}

// Global recorder gate (sibling of trace::setTracingEnabled): event
// recording and loop self-profiling are skipped entirely when off.
// Defaults to ON — this is a flight recorder, not a debug mode.
void setRecorderEnabled(bool on);
bool recorderEnabled();

// --------------------------------------------------------- event model

// One recorded event. All-scalar for the same reason Span is: each
// field lives in an atomic ring word. Strings (callback tags, fault
// kinds) travel as trace::internInstance ids in `detail`.
struct Event {
  uint64_t tNs = 0;       // trace::nowNs clock (shared with spans/timeline)
  uint32_t kind = 0;      // EventKind
  uint32_t instance = 0;  // internInstance id of the recording worker
  uint64_t durNs = 0;     // stall/iteration/timer duration; 0 otherwise
  uint64_t traceId = 0;   // disruptions: affected trace (0 ⇒ none known)
  uint64_t detail = 0;    // kind-specific (cause/phase pack, tag id, …)

  using Words = std::array<uint64_t, 5>;
  [[nodiscard]] Words pack() const noexcept {
    return {tNs, packHalves(kind, instance), durNs, traceId, detail};
  }
  static Event unpack(const Words& w) noexcept {
    return {w[0], static_cast<uint32_t>(w[1] >> 32),
            static_cast<uint32_t>(w[1]), w[2], w[3], w[4]};
  }
  friend bool operator==(const Event&, const Event&) = default;
};

// Per-worker ring of events: the same SeqlockRing as trace::SpanSink.
using EventRing = SeqlockRing<Event>;

// Hot-path helper mirroring recordSpan: a no-op when the ring handle
// is unresolved or the recorder gate is off.
inline void recordEvent(EventRing* ring, EventKind kind, uint32_t instance,
                        uint64_t durNs, uint64_t traceId,
                        uint64_t detail) noexcept {
  if (ring == nullptr || !recorderEnabled()) {
    return;
  }
  Event e;
  e.tNs = trace::nowNs();
  e.kind = static_cast<uint32_t>(kind);
  e.instance = instance;
  e.durNs = durNs;
  e.traceId = traceId;
  e.detail = detail;
  ring->record(e);
}

}  // namespace zdr::fr
