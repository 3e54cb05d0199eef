// Hop-level request tracing primitives.
//
// The paper's evaluation can say *that* a release was invisible; it
// cannot say *where* a surviving request spent its time. This module
// adds the missing attribution: a TraceContext minted at the edge and
// propagated on every hop (x-zdr-trace header on trunk/app requests, a
// payload field on DCR control frames), with each tier recording
// completed hop spans into a per-worker SpanSink — the lock-free
// SeqlockRing (seqlock_ring.h) the flight recorder also uses — that
// the registry drains on snapshot.
//
// Design constraints, in order:
//  * the record path sits on the multi-worker hot path — no locks, no
//    allocation, a handful of relaxed atomic stores;
//  * snapshots may run concurrently with recording (the /__stats
//    endpoint scrapes a live proxy) — the ring detects a torn read and
//    skips it, never hands it out;
//  * span/trace ids must round-trip through JSON doubles exactly, so
//    ids are minted from a process-wide counter (uint53-safe), not
//    random 64-bit values.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "metrics/seqlock_ring.h"

namespace zdr::trace {

// ---------------------------------------------------------------- ids

// Process-wide monotonically increasing id (never 0). Shared by trace
// and span ids: uniqueness matters, structure does not.
uint64_t newId();

// Nanoseconds since a process-wide steady epoch. Shared with the
// release timeline (timeline.h) so span intervals and ZDR phase
// windows are directly comparable.
uint64_t nowNs();

// Global tracing gate: span recording and header propagation are
// skipped entirely when off. Instruments (counters/histograms) are
// unaffected.
void setTracingEnabled(bool on);
bool tracingEnabled();

// Interned instance names: spans carry a small integer instead of a
// string so the record path never allocates. The table is process-wide
// and append-only (ids stay valid for the process lifetime).
uint32_t internInstance(const std::string& name);
std::string instanceName(uint32_t id);

// --------------------------------------------------------- span model

enum class SpanKind : uint8_t {
  kEdgeRequest = 1,     // edge: full user request, accept→response
  kEdgeLocal = 2,       // edge: request served locally (health/stats/cache)
  kEdgeUpstream = 3,    // edge: dispatch→upstream response on a trunk
  kEdgeTrunkWait = 4,   // edge: waiting for a still-connecting trunk
  kEdgeRedispatch = 5,  // edge: budget-gated re-dispatch after trunk abort
  kEdgeDcrResume = 6,   // edge: re_connect sent → connect_ack/refuse
  kOriginRequest = 7,   // origin: trunk stream open→response sent
  kOriginAppConnect = 8,   // origin: app connection acquire (pool or dial)
  kOriginAppAttempt = 9,   // origin: one request attempt against one app
  kOriginPprReplay = 10,   // origin: 379 received → replay decision
  kOriginDcrReconnect = 11,  // origin: resume CONNECT → broker verdict
  kAppHandle = 12,      // app server: request parsed → response written
  kAppDrainBounce = 13,  // app server: 379 handed back during drain
};

const char* spanKindName(SpanKind k);

// One completed hop. All-scalar on purpose: the SpanSink stores each
// field in an atomic ring word so concurrent scrape never races
// recording.
struct Span {
  uint64_t traceId = 0;
  uint64_t spanId = 0;
  uint64_t parentId = 0;  // 0 ⇒ root
  uint32_t kind = 0;      // SpanKind
  uint32_t instance = 0;  // internInstance id
  uint64_t startNs = 0;
  uint64_t endNs = 0;
  uint64_t detail = 0;  // kind-specific (HTTP status, attempt #, …)

  using Words = std::array<uint64_t, 7>;
  [[nodiscard]] Words pack() const noexcept {
    return {traceId, spanId,  parentId, packHalves(kind, instance),
            startNs, endNs, detail};
  }
  static Span unpack(const Words& w) noexcept {
    return {w[0], w[1], w[2], static_cast<uint32_t>(w[3] >> 32),
            static_cast<uint32_t>(w[3]), w[4], w[5], w[6]};
  }
  friend bool operator==(const Span&, const Span&) = default;
};

// Propagation context carried per in-flight request.
struct TraceContext {
  uint64_t traceId = 0;
  uint64_t spanId = 0;    // the current hop's span
  uint64_t parentId = 0;  // the upstream hop's span
  [[nodiscard]] bool valid() const noexcept { return traceId != 0; }
};

// x-zdr-trace wire format: "<traceId hex>-<spanId hex>".
std::string formatTraceHeader(uint64_t traceId, uint64_t spanId);
bool parseTraceHeader(std::string_view value, uint64_t& traceId,
                      uint64_t& spanId);

inline constexpr std::string_view kTraceHeaderName = "x-zdr-trace";

// ----------------------------------------------------------- SpanSink

// Per-worker ring of completed spans (seqlock_ring.h); the registry
// drains every sink on snapshot.
using SpanSink = SeqlockRing<Span>;

}  // namespace zdr::trace
