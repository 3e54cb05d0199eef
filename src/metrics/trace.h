// Hop-level request tracing primitives.
//
// The paper's evaluation can say *that* a release was invisible; it
// cannot say *where* a surviving request spent its time. This module
// adds the missing attribution: a TraceContext minted at the edge and
// propagated on every hop (x-zdr-trace header on trunk/app requests, a
// payload field on DCR control frames), with each tier recording
// completed hop spans into a per-worker, fixed-size, lock-free
// SpanSink that the registry drains on snapshot.
//
// Design constraints, in order:
//  * the record path sits on the multi-worker hot path — no locks, no
//    allocation, a handful of relaxed atomic stores;
//  * snapshots may run concurrently with recording (the /__stats
//    endpoint scrapes a live proxy) — every slot field is an atomic
//    and publication is guarded by a per-slot sequence counter, so a
//    torn read is detected and skipped, never handed out;
//  * span/trace ids must round-trip through JSON doubles exactly, so
//    ids are minted from a process-wide counter (uint53-safe), not
//    random 64-bit values.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace zdr::trace {

// ---------------------------------------------------------------- ids

// Process-wide monotonically increasing id (never 0). Shared by trace
// and span ids: uniqueness matters, structure does not.
uint64_t newId();

// Nanoseconds since a process-wide steady epoch. Shared with the
// release timeline (timeline.h) so span intervals and ZDR phase
// windows are directly comparable.
uint64_t nowNs();

// Global tracing gate (like setSpliceRelayEnabled): span recording and
// header propagation are skipped entirely when off. Instruments
// (counters/histograms) are unaffected.
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
// field in an atomic slot so concurrent scrape never races recording.
struct Span {
  uint64_t traceId = 0;
  uint64_t spanId = 0;
  uint64_t parentId = 0;  // 0 ⇒ root
  uint32_t kind = 0;      // SpanKind
  uint32_t instance = 0;  // internInstance id
  uint64_t startNs = 0;
  uint64_t endNs = 0;
  uint64_t detail = 0;  // kind-specific (HTTP status, attempt #, …)
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

// Fixed-size multi-producer ring of completed spans. record() is
// lock-free: claim a slot with one fetch_add, mark it in-progress
// (odd sequence), store the fields, publish (even sequence). When the
// ring wraps, the oldest spans are overwritten and counted as dropped.
// snapshot() is non-destructive and skips slots that are mid-write or
// were overwritten during the scan.
class SpanSink {
 public:
  // Capacity is rounded up to a power of two; default fits a burst of
  // ~8k spans per worker between scrapes.
  explicit SpanSink(size_t capacity = 8192);
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  void record(const Span& s) noexcept;

  // Appends every currently published span, oldest first. Returns the
  // number appended.
  size_t snapshot(std::vector<Span>& out) const;

  [[nodiscard]] uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t dropped() const noexcept {
    uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  [[nodiscard]] size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    // seq: 0 = empty, 2*idx+1 = writing, 2*idx+2 = published-for-idx.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> traceId{0};
    std::atomic<uint64_t> spanId{0};
    std::atomic<uint64_t> parentId{0};
    std::atomic<uint64_t> kindInstance{0};  // kind << 32 | instance
    std::atomic<uint64_t> startNs{0};
    std::atomic<uint64_t> endNs{0};
    std::atomic<uint64_t> detail{0};
  };

  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace zdr::trace
