// Private per-connection state of Proxy. Included only by proxy_*.cpp.
#pragma once

#include "netcore/fault_injection.h"
#include "proxygen/proxy.h"

namespace zdr::proxygen {

// One event-loop shard. Shard 0 is the primary loop; shards 1..N-1
// each own a worker EventLoopThread. Everything in here is confined
// to the shard's loop thread — touched only from callbacks running on
// that loop, or from the primary thread via WorkerPool::runOn (which
// serializes on the worker). Shard addresses are stable for the
// Proxy's lifetime (held by unique_ptr).
struct Proxy::Shard {
  size_t idx = 0;
  EventLoop* loop = nullptr;

  // Edge state.
  std::set<std::shared_ptr<UserHttpConn>> userConns;
  // One slot per configured origin (index = TrunkLink::idx).
  std::vector<std::unique_ptr<TrunkLink>> trunkLinks;
  size_t trunkRoundRobin = 0;
  // Links whose origin sent GOAWAY, moved out of their slot whole so
  // the raw pointers held by requests, tunnels and the link's own
  // session callbacks stay valid. Each finishes its streams and closes;
  // retireSweepTimer then frees the closed ones.
  std::vector<std::unique_ptr<TrunkLink>> retiredLinks;
  EventLoop::TimerId retireSweepTimer = 0;

  // Origin state.
  std::set<std::shared_ptr<TrunkServerConn>> trunkServerSessions;
  std::unique_ptr<UpstreamPool> appPool;
  size_t appRoundRobin = 0;

  // Retry budget, windowed (see Config::retryBudgetRatio).
  uint64_t windowRequests = 0;
  uint64_t windowRetries = 0;
  TimePoint retryWindowStart{};

  // Admission control (edge): requests currently past the shed gate.
  size_t inFlightRequests = 0;
  bool acceptsPaused = false;

  // Observability handles, resolved once at init (registry lookups are
  // off the data path). Null without a registry.
  trace::SpanSink* spans = nullptr;      // "<name>.w<idx>" span ring
  // Flight-recorder event ring (same "<name>.w<idx>" key as spans):
  // accepts, loop stalls, disruption attribution.
  fr::EventRing* events = nullptr;
  // This proxy's loop observer for the shard (owned by
  // loopRecorders_). Shard 0's loop is shared with the takeover peer
  // during a ZDR overlap, so terminate() only uninstalls when the
  // installed observer is still ours.
  fr::LoopRecorder* recorder = nullptr;
  HdrHistogram* requestUs = nullptr;     // "<name>.w<idx>.request_us"
  MaxGauge* inflightPeak = nullptr;      // "<name>.w<idx>.inflight_peak"
  // Userspace payload copies per request at this hop (see
  // UserHttpConn::copyBytes) — "<name>.w<idx>.copy_bytes_per_req".
  HdrHistogram* copyBytesPerReq = nullptr;
};

// Edge: one user-facing HTTP connection (keep-alive, one request at a
// time — HTTP/1.1 without pipelining, as browsers behave).
struct Proxy::UserHttpConn
    : std::enable_shared_from_this<Proxy::UserHttpConn> {
  Shard* shard = nullptr;
  ConnectionPtr conn;
  // Socket bytes the parser has not consumed yet. Kept off the input
  // buffer so processing can resume after a response completes
  // (keep-alive turnover) without new socket activity.
  Buffer stage;
  http::RequestParser parser;
  std::string bodyPending;  // decoded fragments awaiting forwarding

  // Active request state.
  bool requestActive = false;
  bool headersHandled = false;
  bool servedLocally = false;
  TrunkLink* link = nullptr;
  uint32_t streamId = 0;
  bool upstreamEnded = false;   // we sent END_STREAM upstream
  bool responseStarted = false;
  http::Response upstreamResponse;
  // Relay streaming mode: the response head went out as soon as the
  // trunk HEADERS arrived (Content-Length >= relayThresholdBytes) and
  // body DATA frames stream straight to the user connection — the
  // payload is never re-buffered in upstreamResponse.body.
  bool relayActive = false;
  // Userspace payload bytes this request copied through edge buffers:
  // re-buffered response bytes + serialized output for the buffered
  // path, head + one pass per DATA frame for the relay path. Recorded
  // into the shard's copy_bytes_per_req histogram at finish.
  uint64_t copyBytes = 0;
  std::string cacheKey;  // non-empty ⇒ response is cacheable
  EventLoop::TimerId timeoutTimer = 0;
  // Dispatch retries spent waiting for a still-connecting trunk (a
  // takeover hands the new instance live user connections before its
  // freshly dialed trunks finish their handshakes).
  int trunkWaitRetries = 0;
  // This request holds a slot in the shard's in-flight count
  // (admission control); released exactly once at finish/close.
  bool countedInFlight = false;
  // Disruption attribution fired for this request. A failed request
  // can cross several error sites (terminate's forced reset re-enters
  // the connection's close callback synchronously); the first cause
  // wins and the rest stay silent.
  bool disruptionNoted = false;

  // Hop tracing: the root span for this request plus child-span
  // bookkeeping. The trace id is adopted from the client's
  // x-zdr-trace header when present, else minted here (the edge is
  // the trace root).
  trace::TraceContext trace{};
  uint64_t reqStartNs = 0;
  uint64_t dispatchStartNs = 0;    // first upstream dispatch
  uint64_t upstreamSpanId = 0;     // kEdgeUpstream span (spans retries)
  uint64_t trunkWaitStartNs = 0;   // waiting for a connecting trunk
  int lastStatus = 0;

  void resetRequestState() {
    requestActive = false;
    headersHandled = false;
    servedLocally = false;
    link = nullptr;
    streamId = 0;
    upstreamEnded = false;
    responseStarted = false;
    upstreamResponse = http::Response{};
    relayActive = false;
    copyBytes = 0;
    cacheKey.clear();
    bodyPending.clear();
    trunkWaitRetries = 0;
    disruptionNoted = false;
    trace = trace::TraceContext{};
    reqStartNs = 0;
    dispatchStartNs = 0;
    upstreamSpanId = 0;
    trunkWaitStartNs = 0;
    lastStatus = 0;
  }
};

// Edge: one user MQTT connection relayed through a trunk stream.
struct Proxy::MqttTunnel : std::enable_shared_from_this<Proxy::MqttTunnel> {
  ConnectionPtr userConn;
  std::string userId;
  TrunkLink* link = nullptr;
  uint32_t streamId = 0;
  bool tunnelUp = false;
  Buffer pendingToOrigin;  // user bytes buffered until the tunnel opens

  // Disruption attribution fired for this tunnel (first cause wins;
  // terminate's forced close and the drop path both pass through here).
  bool disruptionNoted = false;

  // DCR resume in progress (§4.2).
  bool resuming = false;
  TrunkLink* resumeLink = nullptr;
  uint32_t resumeStreamId = 0;

  // DCR resume span: the trace id comes from the solicitation frame
  // (the draining origin's drain trace) so the resume hop joins it.
  uint64_t resumeTraceId = 0;
  uint64_t resumeParentId = 0;
  uint64_t resumeSpanId = 0;
  uint64_t resumeStartNs = 0;
};

// Edge: one long-lived trunk session to an Origin proxy.
struct Proxy::TrunkLink {
  Shard* shard = nullptr;
  BackendRef origin;
  size_t idx = 0;
  h2::SessionPtr session;
  bool connecting = false;
  bool up = false;
  // When this link took the slot of a retired one (epoch for a link
  // dialed at startup). A GOAWAY soon after means the dial landed on a
  // draining origin again: a hard drain keeps its listener open.
  TimePoint replacedAt{};
  // Pending edgeEnsureTrunk retry; the proxy can be torn down (ZDR
  // restart) while the 200 ms backoff is in flight on a worker loop
  // that outlives it, so terminate() must be able to cancel it.
  EventLoop::TimerId reconnectTimer = 0;
  std::map<uint32_t, std::weak_ptr<UserHttpConn>> httpStreams;
  std::map<uint32_t, std::weak_ptr<MqttTunnel>> mqttStreams;
};

// Origin: one accepted trunk session from an Edge.
struct Proxy::TrunkServerConn
    : std::enable_shared_from_this<Proxy::TrunkServerConn> {
  Shard* shard = nullptr;
  h2::SessionPtr session;
  std::map<uint32_t, std::shared_ptr<OriginRequest>> requests;
  std::map<uint32_t, std::shared_ptr<BrokerTunnel>> brokerTunnels;
};

// Origin: one HTTP request being proxied to the App. Server tier.
struct Proxy::OriginRequest
    : std::enable_shared_from_this<Proxy::OriginRequest> {
  Shard* shard = nullptr;
  std::weak_ptr<TrunkServerConn> tc;
  uint32_t streamId = 0;
  http::Request head;       // method/path/headers; body streams
  bool isPost = false;
  bool clientDone = false;  // END_STREAM received from the edge

  ConnectionPtr appConn;
  std::string appName;
  http::ResponseParser resParser;
  bool connected = false;
  Buffer pendingBody;       // client body not yet written upstream
  uint64_t bodyForwarded = 0;

  // Partial Post Replay state (§4.3).
  int attempts = 0;
  std::set<std::string> excluded;  // app servers that already failed us
  bool finished = false;
  EventLoop::TimerId timer = 0;

  // Hop tracing: trace adopted from the trunk stream's x-zdr-trace
  // header; spanId is the origin-request span, attemptSpanId the
  // current kOriginAppAttempt child (re-minted per PPR attempt, same
  // trace id throughout).
  trace::TraceContext trace{};
  uint64_t reqStartNs = 0;
  uint64_t attemptSpanId = 0;
  uint64_t attemptStartNs = 0;

  // Bounded tail of body bytes already written to the current app
  // server. A 379 echoes what the server *received*; bytes still in
  // flight between our send() and its read() are recovered from this
  // tail. Bounded so the proxy never buffers whole POSTs (the §4.3
  // argument against option iii).
  std::string sentTail;
  void retainSent(std::string_view data) {
    sentTail.append(data);
    if (sentTail.size() > kSentTailLimit) {
      sentTail.erase(0, sentTail.size() - kSentTailLimit);
    }
  }
  static constexpr size_t kSentTailLimit = 256 * 1024;
};

// Origin: one MQTT tunnel stream relayed to a broker.
struct Proxy::BrokerTunnel
    : std::enable_shared_from_this<Proxy::BrokerTunnel> {
  std::weak_ptr<TrunkServerConn> tc;
  uint32_t streamId = 0;
  std::string userId;
  ConnectionPtr brokerConn;
  bool up = false;       // piping both ways
  bool resume = false;   // DCR re-attach; must CONNACK before piping
  Buffer pendingToBroker;
  Buffer resumeParseBuf;
  bool closed = false;

  // DCR reconnect span (resume tunnels only); trace id arrives on the
  // resume stream's x-zdr-trace header.
  trace::TraceContext trace{};
  uint64_t resumeStartNs = 0;
};

// Pseudo-header names used on trunk streams.
inline constexpr std::string_view kHdrMethod = ":method";
inline constexpr std::string_view kHdrPath = ":path";
inline constexpr std::string_view kHdrStatus = ":status";
inline constexpr std::string_view kHdrTunnel = "x-zdr-tunnel";
inline constexpr std::string_view kHdrUserId = "x-zdr-user-id";
inline constexpr std::string_view kHdrResume = "x-zdr-resume";
inline constexpr std::string_view kHdrTrace = trace::kTraceHeaderName;

// Records one hop span into a shard's ring. No-op when tracing is off,
// the sink is missing, or the trace never got minted.
inline void recordSpan(trace::SpanSink* sink, uint64_t traceId,
                       uint64_t spanId, uint64_t parentId,
                       trace::SpanKind kind, uint32_t instance,
                       uint64_t startNs, uint64_t endNs,
                       uint64_t detail = 0) noexcept {
  if (sink == nullptr || traceId == 0 || !trace::tracingEnabled()) {
    return;
  }
  trace::Span s;
  s.traceId = traceId;
  s.spanId = spanId;
  s.parentId = parentId;
  s.kind = static_cast<uint32_t>(kind);
  s.instance = instance;
  s.startNs = startNs;
  s.endNs = endNs;
  s.detail = detail;
  sink->record(s);
}

}  // namespace zdr::proxygen
