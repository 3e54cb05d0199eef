// Proxygen-model L7 load balancer.
//
// One class serves both deployment roles (§2.1):
//  * Edge  — terminates user TCP/UDP connections on VIPs, serves
//            cacheable content locally (Direct-Server-Return model),
//            forwards requests and MQTT tunnels to Origin over
//            long-lived h2 trunks, and runs the Edge half of
//            Downstream Connection Reuse;
//  * Origin — accepts trunks from Edges, load-balances HTTP requests
//            over the App. Server tier (with Partial Post Replay),
//            relays MQTT tunnels to brokers chosen by consistent
//            hashing on user-id, and runs the Origin half of DCR.
//
// Both roles restart via Socket Takeover (§4.1): the old instance
// hands every listening socket fd to the freshly spun instance over a
// UNIX socket (SCM_RIGHTS), then drains.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "h2/session.h"
#include "http/codec.h"
#include "l4lb/consistent_hash.h"
#include "l4lb/health.h"
#include "metrics/loop_recorder.h"
#include "metrics/metrics.h"
#include "mqtt/codec.h"
#include "netcore/connection.h"
#include "netcore/listener_group.h"
#include "proxygen/edge_cache.h"
#include "proxygen/upstream_pool.h"
#include "quicish/server.h"
#include "takeover/takeover.h"

namespace zdr::proxygen {

struct BackendRef {
  std::string name;
  SocketAddr addr;
};

class Proxy {
 public:
  enum class Role : uint8_t { kEdge, kOrigin };

  struct Config {
    std::string name = "proxy";
    Role role = Role::kEdge;
    uint32_t instanceId = 0;

    // Edge VIPs (port 0 ⇒ kernel-assigned, resolved after start).
    SocketAddr httpVip{};
    SocketAddr mqttVip{};
    SocketAddr quicVip{};
    bool enableHttpVip = true;
    bool enableMqttVip = false;
    bool enableQuicVip = false;

    // Origin trunk listener address.
    SocketAddr trunkAddr{};

    // Edge: upstream Origin proxies. Origin: App. Servers + brokers.
    std::vector<BackendRef> origins;
    std::vector<BackendRef> appServers;
    std::vector<BackendRef> brokers;

    Duration drainPeriod = Duration{2000};
    Duration requestTimeout = Duration{5000};
    std::string takeoverPath;  // UNIX path for the takeover server

    bool pprEnabled = true;
    int pprMaxRetries = 10;
    bool dcrEnabled = true;
    // §4.2 hardening: reconnect_solicitation rides a lossy network, so
    // a draining Origin re-sends it a few times during the drain
    // window (the Edge resume path is idempotent — duplicates are
    // cheap, a lost solicitation costs every tunnel on the trunk).
    int dcrSolicitRetries = 3;
    bool udpUserSpaceRouting = true;
    size_t udpWorkers = 4;
    // TCP worker counts: each worker is an event-loop thread owning
    // one SO_REUSEPORT listener per VIP and every connection it
    // accepts (§4.1's socket ring). 1 ⇒ the single-threaded behaviour
    // every pre-existing test assumes. Edge role uses httpWorkers,
    // origin role uses trunkWorkers.
    size_t httpWorkers = 1;
    size_t trunkWorkers = 1;
    bool edgeCacheEnabled = true;
    // Probing of App. Servers (origin role).
    l4lb::HealthChecker::Options appServerHealth{};

    // --- failure containment / overload protection ---
    // Per-backend circuit breaker knobs forwarded to every shard's
    // UpstreamPool (origin role).
    UpstreamPool::Options upstreamPool{};
    // Per-shard retry budget (Envoy-style): within each rolling
    // window, retries are allowed while
    //   retries < max(retryBudgetMinPerWindow,
    //                 retryBudgetRatio × requests-in-window).
    // Gates PPR replays, app connect-failure failovers and edge
    // re-dispatches so injected faults can't amplify into retry
    // storms. The floor keeps low-traffic shards (single-request
    // tests) retrying; the window resets so a burst can't starve
    // retries forever.
    double retryBudgetRatio = 0.2;
    uint64_t retryBudgetMinPerWindow = 32;
    Duration retryBudgetWindow = Duration{1000};
    // Admission control (edge role): cap on concurrently active user
    // requests per shard — excess requests are fast-failed with
    // 503 + Retry-After instead of queueing into timeout. 0 disables.
    size_t shedMaxInFlightPerShard = 4096;
    // Accept watermarks: the shard's ring listeners pause above high,
    // resume below low (0 ⇒ derived: high = 3/4, low = 1/2 of the
    // shed cap).
    size_t shedPauseHighWatermark = 0;
    size_t shedResumeLowWatermark = 0;
    // Drain-deadline watchdog: hard bound on the drain phase
    // (0 ⇒ drainPeriod). Stragglers past the deadline are force-closed
    // and reported via <name>.drain_forced_closes. A ZDR drain whose
    // work finishes early (no conns, trunks or tunnels left)
    // terminates without waiting out the period when drainEarlyExit
    // is set; hard drains always serve the full window (the instance
    // is still taking traffic while L4 shifts it away).
    Duration drainDeadline = Duration{0};
    bool drainEarlyExit = true;
    Duration drainWatchInterval = Duration{20};
    // Per-worker span ring capacity (hop tracing). Tests that assert
    // on complete span sets raise this so a long load phase cannot
    // wrap the ring.
    size_t spanSinkCapacity = 8192;
    // --- flight recorder (always-on observability) ---
    // Per-worker event-ring capacity: loop stalls, release edges and
    // disruption-attribution events (fixed memory budget; the ring
    // wraps, /__trace reports exact drop accounting).
    size_t eventRingCapacity = 4096;
    // Installs a LoopRecorder on every shard loop: per-iteration
    // poll/work histograms, per-callback-tag cumulative time, and
    // kLoopStall events blaming the offending tag whenever one
    // dispatch exceeds loopStallThreshold. Off ⇒ the loops take zero
    // extra clock reads (the bench's recorder-off cell).
    bool loopProfiling = true;
    Duration loopStallThreshold = Duration{25};

    // --- reduced-copy relay fast path ---
    // Upstream responses whose body is at least this large stream
    // straight from trunk DATA frames to the user connection instead
    // of being re-buffered whole and serialized again. 0 disables
    // streaming.
    size_t relayThresholdBytes = 64 * 1024;
  };

  // Fresh start: binds all configured VIPs.
  Proxy(EventLoop& loop, Config config, MetricsRegistry* metrics);
  // Socket Takeover start: adopts the old instance's sockets.
  Proxy(EventLoop& loop, Config config, MetricsRegistry* metrics,
        takeover::TakeoverClient::Result handoff);
  ~Proxy();
  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  // --- addresses (resolved after construction) ---
  [[nodiscard]] SocketAddr httpVip() const;
  [[nodiscard]] SocketAddr mqttVip() const;
  [[nodiscard]] SocketAddr quicVip() const;
  [[nodiscard]] SocketAddr trunkAddr() const;

  // --- release workflow ---
  // Arms the takeover server so an updated instance can take over.
  void armTakeoverServer();
  // HardRestart-style drain: fail health checks, stop nothing else.
  void startHardDrain();
  // ZDR drain: called automatically once the takeover peer ACKs.
  void enterDrain();
  // End of drain period: reset whatever is still alive.
  void terminate();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool terminated() const noexcept {
    return terminated_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const std::string& name() const noexcept {
    return config_.name;
  }

  // --- introspection for tests/experiments ---
  // Connection/session counts are kept in atomics (sharded state lives
  // on worker threads) so these are callable from any thread.
  [[nodiscard]] size_t userConnCount() const noexcept {
    return userConnCount_.load(std::memory_order_acquire);
  }
  [[nodiscard]] size_t mqttTunnelCount() const noexcept {
    return mqttTunnels_.size();
  }
  [[nodiscard]] size_t trunkSessionCount() const noexcept {
    return trunkSessionCount_.load(std::memory_order_acquire);
  }
  [[nodiscard]] quicish::Server* quicServer() noexcept {
    return quicServer_.get();
  }
  [[nodiscard]] l4lb::HealthChecker* appServerHealth() noexcept {
    return appHealth_.get();
  }
  // Shard 0's pool (the only shard when trunkWorkers == 1).
  [[nodiscard]] UpstreamPool* upstreamPool() noexcept;
  // Number of event-loop shards serving this role (>= 1; shard 0 is
  // the primary loop).
  [[nodiscard]] size_t shardCount() const noexcept;

 private:
  // ---------- shared ----------
  struct UserHttpConn;     // edge: one user-facing HTTP connection
  struct MqttTunnel;       // edge: one user MQTT connection + its stream
  struct TrunkLink;        // edge: one trunk session to an origin
  struct TrunkServerConn;  // origin: one accepted trunk session
  struct OriginRequest;    // origin: one HTTP request being proxied
  struct BrokerTunnel;     // origin: one MQTT tunnel to a broker
  // One event-loop shard: a worker loop plus every piece of per-
  // connection state confined to it (defined in proxy_detail.h).
  struct Shard;

  void initCommon();
  void startFresh();
  void startFromHandoff(takeover::TakeoverClient::Result handoff);
  void bump(const std::string& counter, uint64_t n = 1);
  static void bumpHot(Counter* c, uint64_t n = 1) {
    if (c != nullptr) {
      c->add(n);
    }
  }
  // Release-timeline events (no-ops without a registry).
  void tlPoint(const std::string& phase, const std::string& detail = {});
  void tlBegin(const std::string& phase, const std::string& detail = {});
  void tlEnd(const std::string& phase, const std::string& detail = {});
  // Release phase this instance is currently in, for disruption
  // attribution; derived from the drain/terminate flags, callable from
  // any thread.
  [[nodiscard]] fr::ReleasePhase currentReleasePhase() const noexcept;
  // Attributes one client-visible disruption: bumps the exact
  // "<name>.disruption.<cause>" counter and records a kDisruption
  // event carrying the request's trace id plus (cause, phase) packed
  // into the detail word. `sh` may be null (primary-loop state such as
  // MQTT tunnels) — the event then lands in shard 0's ring.
  void noteDisruption(Shard* sh, fr::DisruptionCause cause,
                      uint64_t traceId = 0);
  // Once-per-request attribution for user HTTP requests: the first
  // error site to fire wins. (A terminate-forced reset synchronously
  // re-enters the connection's close callback — without the guard the
  // same failed request would attribute twice.)
  void edgeNoteDisruption(const std::shared_ptr<UserHttpConn>& uc,
                          fr::DisruptionCause cause);
  // Retry budget (see Config): called on the shard's own thread.
  void noteShardRequest(Shard& sh);
  [[nodiscard]] bool trySpendRetryToken(Shard& sh);
  // Admission control: true ⇒ the request was shed (503 already sent).
  bool edgeMaybeShed(const std::shared_ptr<UserHttpConn>& uc);
  void edgeNoteRequestDone(Shard& sh);
  // Budget-gated re-dispatch of an idempotent request whose trunk
  // stream aborted; true ⇒ the request was re-sent on another trunk.
  bool edgeTryRedispatch(const std::shared_ptr<UserHttpConn>& uc);
  // Drain watchdog body (primary loop).
  void drainWatchTick();
  takeover::Inventory buildInventory(std::vector<int>& fds);
  // Runs fn(shard) on every shard's own loop thread, synchronously,
  // in shard order. Primary-thread only.
  void forEachShard(const std::function<void(Shard&)>& fn);
  [[nodiscard]] size_t tcpWorkerCount() const noexcept {
    size_t n = config_.role == Role::kEdge ? config_.httpWorkers
                                           : config_.trunkWorkers;
    return n == 0 ? 1 : n;
  }

  // ---------- edge ----------
  void edgeOnHttpAccept(Shard& sh, TcpSocket sock);
  void edgeOnHttpRequestHeaders(const std::shared_ptr<UserHttpConn>& uc);
  // Forwards the parsed request over a trunk; retried briefly while
  // trunks are still connecting (instance bring-up after a takeover).
  void edgeDispatchUpstream(const std::shared_ptr<UserHttpConn>& uc);
  void edgeOnHttpBody(const std::shared_ptr<UserHttpConn>& uc,
                      std::string_view fragment, bool last);
  void edgeServeLocal(const std::shared_ptr<UserHttpConn>& uc,
                      const http::Response& res);
  // Writes the buffered upstream response to the user and finishes
  // the request.
  void edgeDeliverUpstreamResponse(const std::shared_ptr<UserHttpConn>& uc);
  // The one egress for user responses: serializes `res` (only its head
  // when `headOnly`, for relay mode) onto the user connection. A
  // draining edge marks it Connection: close; edgeFinishUserRequest
  // then retires the connection once the response flushes (§4.1).
  void edgeSendResponse(const std::shared_ptr<UserHttpConn>& uc,
                        const http::Response& res, bool headOnly = false);
  // Ends the request's ledger and recycles the connection for the next
  // keep-alive request, or closes it after the flush when the edge is
  // draining or the response overtook the request body.
  void edgeFinishUserRequest(const std::shared_ptr<UserHttpConn>& uc);
  // Drain start: closes every user connection with no request in
  // progress, so an idle keep-alive client reconnects to the updated
  // instance now instead of starting a request here that the drain
  // deadline would cut.
  void edgeCloseIdleUserConns(Shard& sh);
  void edgeFailUserRequest(const std::shared_ptr<UserHttpConn>& uc,
                           int status, const std::string& why);
  TrunkLink* edgePickTrunk(Shard& sh);
  // Some slot is dialing, or waiting out its re-dial backoff.
  [[nodiscard]] static bool edgeTrunkPending(Shard& sh);
  void edgeEnsureTrunk(Shard& sh, size_t idx);
  // Dials slot `idx` again after the reconnect backoff.
  void edgeRedialLater(Shard& sh, size_t idx);
  // The origin sent GOAWAY (RFC 9113 §6.8): retire the link, dial a
  // fresh one into its slot, and close the old one once idle.
  void edgeOnTrunkGoaway(TrunkLink* link);
  void edgeOnTrunkControl(TrunkLink* link, const h2::Frame& frame);
  void edgeOnTrunkClosed(TrunkLink* link);
  void edgeOnMqttAccept(TcpSocket sock);
  void edgeOpenMqttTunnel(const std::shared_ptr<MqttTunnel>& tun,
                          bool resume);
  // solTraceId/solSpanId: trace carried by the reconnect_solicitation
  // frame (0 ⇒ none; a fresh trace is minted per tunnel).
  void edgeResumeMqttTunnels(TrunkLink* fromLink, uint64_t solTraceId = 0,
                             uint64_t solSpanId = 0);
  void edgeDropMqttTunnel(const std::shared_ptr<MqttTunnel>& tun,
                          std::error_code why);

  // ---------- origin ----------
  void originOnTrunkAccept(Shard& sh, TcpSocket sock);
  void originOnStreamHeaders(const std::shared_ptr<TrunkServerConn>& tc,
                             uint32_t streamId, const h2::HeaderList& headers,
                             bool endStream);
  void originOnStreamData(const std::shared_ptr<TrunkServerConn>& tc,
                          uint32_t streamId, std::string_view data,
                          bool endStream);
  void originStartAppRequest(const std::shared_ptr<OriginRequest>& req);
  void originConnectApp(const std::shared_ptr<OriginRequest>& req,
                        const std::string& excludeName);
  void originOnAppResponse(const std::shared_ptr<OriginRequest>& req);
  void originReplayPartialPost(const std::shared_ptr<OriginRequest>& req,
                               const http::Response& res379);
  void originFinishRequest(const std::shared_ptr<OriginRequest>& req,
                           const http::Response& res);
  // Fails the request back to the edge with `status` and attributes
  // the disruption: `cause` names the mechanism that gave up, but an
  // injected fault on the app leg trumps it (the chaos E2E demands
  // sabotage is blamed on the fault, not on the symptom).
  void originFailRequest(const std::shared_ptr<OriginRequest>& req,
                         int status, const std::string& why,
                         fr::DisruptionCause cause);
  void originOpenBrokerTunnel(const std::shared_ptr<TrunkServerConn>& tc,
                              uint32_t streamId, const std::string& userId,
                              bool resume, uint64_t traceId = 0,
                              uint64_t parentSpanId = 0);
  const BackendRef* originPickAppServer(Shard& sh,
                                        const std::string& excludeName);
  const BackendRef* originBrokerFor(const std::string& userId);

  EventLoop& loop_;
  Config config_;
  MetricsRegistry* metrics_;

  // Counters bumped on every request ride pre-resolved pointers: the
  // registry's map lookup (string hash + lock) is off the hot path.
  // Counter addresses are stable for the registry's lifetime.
  struct HotCounters {
    Counter* requests = nullptr;          // "<name>.requests"
    Counter* responsesRelayed = nullptr;  // edge "<name>.responses_relayed"
    Counter* responsesSent = nullptr;     // origin "<name>.responses_sent"
    Counter* httpConnAccepted = nullptr;  // edge "<name>.http_conn_accepted"
    Counter* trunkAccepted = nullptr;     // origin "<name>.trunk_accepted"
    Counter* cacheHit = nullptr;          // "edge.cache_hit"
    Counter* cacheMiss = nullptr;         // "edge.cache_miss"
  };
  HotCounters hot_;

  // Loop self-profiling observers, one per shard loop. Declared before
  // workers_ so they are destroyed after the worker loops have joined;
  // terminate() uninstalls them from the primary loop (which outlives
  // this proxy) before they die.
  std::vector<std::unique_ptr<fr::LoopRecorder>> loopRecorders_;
  // Worker threads + per-worker state. Declared before the listener
  // groups (which hold Acceptors living on worker loops) so listeners
  // are destroyed first; terminate() clears each shard's connection
  // state on its own thread before ~WorkerPool joins the loops.
  std::unique_ptr<WorkerPool> workers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Listeners (either freshly bound or adopted via takeover).
  // http/trunk are SO_REUSEPORT rings spread over the workers; mqtt
  // stays on the primary loop (tunnels are pinned to shard 0).
  std::unique_ptr<ListenerGroup> httpListeners_;
  std::vector<std::unique_ptr<Acceptor>> mqttAcceptors_;
  std::unique_ptr<ListenerGroup> trunkListeners_;
  std::unique_ptr<quicish::Server> quicServer_;

  std::unique_ptr<takeover::TakeoverServer> takeoverServer_;

  // Edge state that stays on the primary loop (MQTT tunnels only ever
  // ride shard-0 trunk links).
  std::set<std::shared_ptr<MqttTunnel>> mqttTunnels_;
  EdgeCache edgeCache_;

  // Origin state shared across shards (HealthChecker/EdgeCache are
  // internally locked; brokerHash_ is immutable after construction).
  std::unique_ptr<l4lb::HealthChecker> appHealth_;
  std::unique_ptr<l4lb::ConsistentHash> brokerHash_;

  std::atomic<size_t> userConnCount_{0};
  std::atomic<size_t> trunkSessionCount_{0};

  std::atomic<bool> draining_{false};
  std::atomic<bool> hardDraining_{false};
  std::atomic<bool> terminated_{false};
  EventLoop::TimerId drainTimer_ = 0;
  EventLoop::TimerId solicitTimer_ = 0;
  EventLoop::TimerId drainWatchTimer_ = 0;
  TimePoint drainStart_{};
  int solicitRetriesLeft_ = 0;
  // The drain deadline fired with work still in flight: terminate's
  // forced closes are then drain-deadline casualties, not ordinary
  // end-of-restart resets. Primary-thread only.
  bool drainDeadlineHit_ = false;

  // Hop tracing. traceInstance_ names this proxy in recorded spans;
  // the drain trace is minted at enterDrain() and rides every
  // reconnect_solicitation so DCR resume spans across tiers share one
  // trace id.
  uint32_t traceInstance_ = 0;
  uint64_t drainTraceId_ = 0;
  uint64_t drainSpanId_ = 0;
};

}  // namespace zdr::proxygen
