// Proxy lifecycle: construction (fresh and via Socket Takeover),
// takeover server, drain orchestration, teardown.
//
// Threading: the Proxy is constructed, drained, and destroyed on the
// primary loop's thread. Per-connection state lives in Shards, each
// confined to one event-loop thread; the lifecycle code below reaches
// into shards only through forEachShard (runSync fan-out), which
// serializes against the shard's own callbacks.
#include "proxygen/proxy_detail.h"

namespace zdr::proxygen {

Proxy::Proxy(EventLoop& loop, Config config, MetricsRegistry* metrics)
    : loop_(loop), config_(std::move(config)), metrics_(metrics) {
  initCommon();
  startFresh();
}

Proxy::Proxy(EventLoop& loop, Config config, MetricsRegistry* metrics,
             takeover::TakeoverClient::Result handoff)
    : loop_(loop), config_(std::move(config)), metrics_(metrics) {
  initCommon();
  startFromHandoff(std::move(handoff));
}

Proxy::~Proxy() {
  if (!terminated()) {
    terminate();
  }
}

void Proxy::bump(const std::string& counter, uint64_t n) {
  if (metrics_) {
    metrics_->counter(counter).add(n);
  }
}

void Proxy::tlPoint(const std::string& phase, const std::string& detail) {
  if (metrics_) {
    metrics_->timeline().point(config_.name, phase, detail);
  }
}
void Proxy::tlBegin(const std::string& phase, const std::string& detail) {
  if (metrics_) {
    metrics_->timeline().begin(config_.name, phase, detail);
  }
}
void Proxy::tlEnd(const std::string& phase, const std::string& detail) {
  if (metrics_) {
    metrics_->timeline().end(config_.name, phase, detail);
  }
}

fr::ReleasePhase Proxy::currentReleasePhase() const noexcept {
  if (terminated_.load(std::memory_order_acquire)) {
    return fr::ReleasePhase::kShutdown;
  }
  if (hardDraining_.load(std::memory_order_acquire)) {
    return fr::ReleasePhase::kHardDrain;
  }
  if (draining_.load(std::memory_order_acquire)) {
    return fr::ReleasePhase::kDrain;
  }
  return fr::ReleasePhase::kSteady;
}

void Proxy::noteDisruption(Shard* sh, fr::DisruptionCause cause,
                           uint64_t traceId) {
  const fr::ReleasePhase phase = currentReleasePhase();
  // The counter is the exact tally (E2E equality assertions); the ring
  // event carries the trace id and phase for offline attribution.
  bump(config_.name + ".disruption." + fr::disruptionCauseName(cause));
  fr::EventRing* ring = sh != nullptr ? sh->events
                        : shards_.empty() ? nullptr
                                          : shards_.front()->events;
  fr::recordEvent(ring, fr::EventKind::kDisruption, traceInstance_, 0,
                  traceId, fr::packCausePhase(cause, phase));
}

UpstreamPool* Proxy::upstreamPool() noexcept {
  return shards_.empty() ? nullptr : shards_.front()->appPool.get();
}

size_t Proxy::shardCount() const noexcept { return shards_.size(); }

// --- retry budget -----------------------------------------------------
// Windowed, Envoy-style: retries are allowed while
//   retries < max(floor, ratio × requests)
// over a rolling window. Counting requests keeps the cap proportional
// to load; the floor keeps single-request flows (one PPR replay chain)
// retryable; the window reset means a past burst can't starve retries
// forever. Shard-confined — call on the shard's own thread.

namespace {
// Template so the (private) Shard type is deduced, never named.
template <typename ShardT>
void resetRetryWindowIfStale(ShardT& sh, TimePoint now, Duration window) {
  if (sh.retryWindowStart == TimePoint{} ||
      now - sh.retryWindowStart > window) {
    sh.retryWindowStart = now;
    sh.windowRequests = 0;
    sh.windowRetries = 0;
  }
}
}  // namespace

void Proxy::noteShardRequest(Shard& sh) {
  resetRetryWindowIfStale(sh, Clock::now(), config_.retryBudgetWindow);
  ++sh.windowRequests;
}

bool Proxy::trySpendRetryToken(Shard& sh) {
  resetRetryWindowIfStale(sh, Clock::now(), config_.retryBudgetWindow);
  auto proportional = static_cast<uint64_t>(
      config_.retryBudgetRatio * static_cast<double>(sh.windowRequests));
  uint64_t allowed = proportional > config_.retryBudgetMinPerWindow
                         ? proportional
                         : config_.retryBudgetMinPerWindow;
  if (sh.windowRetries >= allowed) {
    bump("shard.retry_budget_exhausted");
    return false;
  }
  ++sh.windowRetries;
  bump("shard.retries");
  return true;
}

void Proxy::forEachShard(const std::function<void(Shard&)>& fn) {
  for (auto& sh : shards_) {
    workers_->runOn(sh->idx, [&fn, &sh] { fn(*sh); });
  }
}

void Proxy::initCommon() {
  workers_ = std::make_unique<WorkerPool>(loop_, tcpWorkerCount(),
                                          config_.name + ".worker");
  traceInstance_ = trace::internInstance(config_.name);
  shards_.reserve(workers_->size());
  for (size_t i = 0; i < workers_->size(); ++i) {
    auto sh = std::make_unique<Shard>();
    sh->idx = i;
    sh->loop = &workers_->loop(i);
    if (metrics_) {
      // Resolved here — before any work referencing the shard is
      // posted to its loop — so worker threads see the handles without
      // further synchronization.
      std::string wname = config_.name + ".w" + std::to_string(i);
      sh->spans = &metrics_->spanSink(wname, config_.spanSinkCapacity);
      sh->events = &metrics_->eventRing(wname, config_.eventRingCapacity);
      sh->requestUs = &metrics_->hdr(wname + ".request_us");
      sh->inflightPeak = &metrics_->maxGauge(wname + ".inflight_peak");
      sh->copyBytesPerReq = &metrics_->hdr(wname + ".copy_bytes_per_req");
      if (config_.loopProfiling) {
        // Always-on loop self-profiling: install is safe against the
        // already-running loop (release/acquire publish); terminate()
        // uninstalls on each shard's own thread before the recorders
        // die with this proxy.
        loopRecorders_.push_back(std::make_unique<fr::LoopRecorder>(
            *metrics_, wname, config_.eventRingCapacity));
        sh->recorder = loopRecorders_.back().get();
        sh->loop->setObserver(sh->recorder, config_.loopStallThreshold);
      }
    }
    shards_.push_back(std::move(sh));
  }

  if (metrics_) {
    hot_.requests = &metrics_->counter(config_.name + ".requests");
    if (config_.role == Role::kEdge) {
      hot_.responsesRelayed =
          &metrics_->counter(config_.name + ".responses_relayed");
      hot_.httpConnAccepted =
          &metrics_->counter(config_.name + ".http_conn_accepted");
      hot_.cacheHit = &metrics_->counter("edge.cache_hit");
      hot_.cacheMiss = &metrics_->counter("edge.cache_miss");
    } else {
      hot_.responsesSent =
          &metrics_->counter(config_.name + ".responses_sent");
      hot_.trunkAccepted =
          &metrics_->counter(config_.name + ".trunk_accepted");
    }
  }

  if (config_.role == Role::kOrigin) {
    // Each shard gets its own pool: pooled connections live on the
    // shard's loop, and the pool's reap timer must be armed on the
    // loop that owns it.
    forEachShard([this](Shard& sh) {
      UpstreamPool::Options poolOpts = config_.upstreamPool;
      if (poolOpts.faultTag.empty()) {
        poolOpts.faultTag = "origin.app";
      }
      if (poolOpts.instanceName.empty()) {
        poolOpts.instanceName = config_.name;
      }
      sh.appPool = std::make_unique<UpstreamPool>(*sh.loop, poolOpts,
                                                  metrics_);
    });
    if (!config_.appServers.empty()) {
      std::vector<l4lb::BackendTarget> targets;
      for (const auto& a : config_.appServers) {
        targets.push_back({a.name, a.addr});
      }
      appHealth_ = std::make_unique<l4lb::HealthChecker>(
          loop_, std::move(targets), config_.appServerHealth, nullptr,
          metrics_);
    }
    brokerHash_ = std::make_unique<l4lb::MaglevHash>();
    std::vector<std::string> brokerNames;
    for (const auto& b : config_.brokers) {
      brokerNames.push_back(b.name);
    }
    brokerHash_->rebuild(brokerNames);
  }
}

void Proxy::startFresh() {
  if (config_.role == Role::kEdge) {
    if (config_.enableHttpVip) {
      httpListeners_ = std::make_unique<ListenerGroup>(
          *workers_, bindTcpRing(config_.httpVip, workers_->size()),
          [this](size_t w, TcpSocket s) {
            edgeOnHttpAccept(*shards_[w], std::move(s));
          });
    }
    if (config_.enableMqttVip) {
      // MQTT stays on the primary loop: tunnels are pinned to shard 0
      // so DCR resume never has to coordinate across workers.
      mqttAcceptors_.push_back(std::make_unique<Acceptor>(
          loop_, TcpListener(config_.mqttVip, BindOptions{}),
          [this](TcpSocket s) { edgeOnMqttAccept(std::move(s)); }));
    }
    if (config_.enableQuicVip) {
      quicish::Server::Options qo;
      qo.instanceId = config_.instanceId;
      qo.numWorkers = config_.udpWorkers;
      qo.userSpaceRouting = config_.udpUserSpaceRouting;
      quicServer_ = std::make_unique<quicish::Server>(loop_, config_.quicVip,
                                                      qo, metrics_);
    }
    // Every shard establishes its own trunks to every configured
    // origin (connections are thread-confined; sharing one session
    // across loops would mean locking the whole h2 stack).
    forEachShard([this](Shard& sh) {
      for (size_t i = 0; i < config_.origins.size(); ++i) {
        sh.trunkLinks.push_back(std::make_unique<TrunkLink>());
        sh.trunkLinks.back()->shard = &sh;
        sh.trunkLinks.back()->origin = config_.origins[i];
        sh.trunkLinks.back()->idx = i;
        edgeEnsureTrunk(sh, i);
      }
    });
  } else {
    trunkListeners_ = std::make_unique<ListenerGroup>(
        *workers_, bindTcpRing(config_.trunkAddr, workers_->size()),
        [this](size_t w, TcpSocket s) {
          originOnTrunkAccept(*shards_[w], std::move(s));
        });
  }
}

void Proxy::startFromHandoff(takeover::TakeoverClient::Result handoff) {
  // Adopt each passed socket by VIP name. Every descriptor must be
  // consumed — an ignored fd would keep a kernel socket alive with
  // nobody reading it, black-holing its share of traffic (§5.1).
  std::vector<FdGuard> quicFds;
  std::vector<TcpListener> httpRing;
  std::vector<TcpListener> mqttRing;
  std::vector<TcpListener> trunkRing;
  for (auto& taken : handoff.sockets) {
    if (taken.desc.proto == takeover::Proto::kUdp) {
      quicFds.push_back(std::move(taken.fd));
    } else if (taken.desc.vipName == "http") {
      httpRing.push_back(TcpListener::fromFd(std::move(taken.fd)));
    } else if (taken.desc.vipName == "mqtt") {
      mqttRing.push_back(TcpListener::fromFd(std::move(taken.fd)));
    } else if (taken.desc.vipName == "trunk") {
      trunkRing.push_back(TcpListener::fromFd(std::move(taken.fd)));
    }
    // Unknown names fall out of scope here and are closed — never
    // silently leaked.
  }

  // Dial the trunks *before* arming the adopted rings: the rings carry
  // a backlog of live SYNs from the handoff window, and a request must
  // never race ahead of its shard's trunk links even starting to
  // connect (edgeDispatchUpstream only waits for links it can see
  // connecting).
  if (config_.role == Role::kEdge) {
    forEachShard([this](Shard& sh) {
      for (size_t i = 0; i < config_.origins.size(); ++i) {
        sh.trunkLinks.push_back(std::make_unique<TrunkLink>());
        sh.trunkLinks.back()->shard = &sh;
        sh.trunkLinks.back()->origin = config_.origins[i];
        sh.trunkLinks.back()->idx = i;
        edgeEnsureTrunk(sh, i);
      }
    });
  }

  // The adopted ring size need not match our worker count (the new
  // release may be configured differently). ListenerGroup places
  // listener i on worker i % M: a surplus stacks extra acceptors on
  // the early workers (never orphaned, §5.1), a deficit leaves some
  // workers accept-less but still serving takeover'd flows.
  auto adoptRing = [this](std::vector<TcpListener> ring,
                          ListenerGroup::AcceptCallback cb)
      -> std::unique_ptr<ListenerGroup> {
    if (ring.empty()) {
      return nullptr;
    }
    size_t workers = workers_->size();
    bump(config_.name + ".ring_adopted_fds", ring.size());
    if (ring.size() > workers) {
      bump(config_.name + ".ring_fd_surplus", ring.size() - workers);
    } else if (ring.size() < workers) {
      bump(config_.name + ".ring_idle_workers", workers - ring.size());
    }
    return std::make_unique<ListenerGroup>(*workers_, std::move(ring),
                                           std::move(cb));
  };
  httpListeners_ =
      adoptRing(std::move(httpRing), [this](size_t w, TcpSocket s) {
        edgeOnHttpAccept(*shards_[w], std::move(s));
      });
  trunkListeners_ =
      adoptRing(std::move(trunkRing), [this](size_t w, TcpSocket s) {
        originOnTrunkAccept(*shards_[w], std::move(s));
      });
  for (auto& l : mqttRing) {
    mqttAcceptors_.push_back(std::make_unique<Acceptor>(
        loop_, std::move(l),
        [this](TcpSocket s) { edgeOnMqttAccept(std::move(s)); }));
  }

  if (!quicFds.empty()) {
    quicish::Server::Options qo;
    qo.instanceId = config_.instanceId;
    qo.numWorkers = quicFds.size();
    qo.userSpaceRouting = config_.udpUserSpaceRouting;
    quicServer_ = std::make_unique<quicish::Server>(loop_, std::move(quicFds),
                                                    qo, metrics_);
    if (handoff.inventory.hasUdpForwardAddr) {
      quicServer_->setForwardPeer(handoff.inventory.udpForwardAddr);
    }
  }
  bump(config_.name + ".takeover_adopted");
  tlPoint("ring_adopted", std::to_string(handoff.sockets.size()));
}

takeover::Inventory Proxy::buildInventory(std::vector<int>& fds) {
  takeover::Inventory inv;
  auto addGroup = [&](const char* name, ListenerGroup* group) {
    if (group == nullptr || group->count() == 0) {
      return;
    }
    for (int fd : group->fds()) {
      takeover::SocketDescriptor d;
      d.vipName = name;
      d.proto = takeover::Proto::kTcp;
      d.addr = group->localAddr();
      inv.sockets.push_back(std::move(d));
      fds.push_back(fd);
    }
    inv.rings.push_back({name, static_cast<uint32_t>(group->count())});
  };
  addGroup("http", httpListeners_.get());
  for (const auto& acc : mqttAcceptors_) {
    takeover::SocketDescriptor d;
    d.vipName = "mqtt";
    d.proto = takeover::Proto::kTcp;
    d.addr = acc->localAddr();
    inv.sockets.push_back(std::move(d));
    fds.push_back(acc->fd());
  }
  if (mqttAcceptors_.size() > 1) {
    inv.rings.push_back(
        {"mqtt", static_cast<uint32_t>(mqttAcceptors_.size())});
  }
  addGroup("trunk", trunkListeners_.get());
  if (quicServer_) {
    size_t i = 0;
    for (int fd : quicServer_->vipSocketFds()) {
      takeover::SocketDescriptor d;
      d.vipName = "quic" + std::to_string(i++);
      d.proto = takeover::Proto::kUdp;
      d.addr = quicServer_->vip();
      inv.sockets.push_back(d);
      fds.push_back(fd);
    }
    inv.hasUdpForwardAddr = true;
    inv.udpForwardAddr = quicServer_->forwardAddr();
  }
  tlPoint("handoff_inventory", std::to_string(inv.sockets.size()));
  return inv;
}

void Proxy::armTakeoverServer() {
  takeoverServer_ = std::make_unique<takeover::TakeoverServer>(
      loop_, config_.takeoverPath,
      [this](std::vector<int>& fds) { return buildInventory(fds); },
      [this] { enterDrain(); });
  tlPoint("takeover_armed");
}

SocketAddr Proxy::httpVip() const {
  return httpListeners_ ? httpListeners_->localAddr() : SocketAddr{};
}
SocketAddr Proxy::mqttVip() const {
  return mqttAcceptors_.empty() ? SocketAddr{}
                                : mqttAcceptors_.front()->localAddr();
}
SocketAddr Proxy::quicVip() const {
  return quicServer_ ? quicServer_->vip() : SocketAddr{};
}
SocketAddr Proxy::trunkAddr() const {
  return trunkListeners_ ? trunkListeners_->localAddr() : SocketAddr{};
}

void Proxy::startHardDrain() {
  // Traditional release (§2.3): fail health checks so the L4 layer
  // pulls us from the ring, stop accepting, let existing connections
  // run out the drain period, then reset whatever is left. The
  // acceptors keep running so the health endpoint answers (503) and
  // requests are still served during drain, which is exactly how
  // production draining behaves (traffic moves away as health checks
  // fail).
  hardDraining_.store(true, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  bump(config_.name + ".hard_drain_started");
  tlBegin("hard_drain");
  if (config_.role == Role::kOrigin) {
    // Edge↔Origin trunks are HTTP/2: graceful GOAWAY is available even
    // in the traditional flow (§2.2).
    forEachShard([](Shard& sh) {
      for (const auto& tc : sh.trunkServerSessions) {
        tc->session->sendGoaway("hard-drain");
      }
    });
  }
  // Hard drains always serve the full window (the instance is still in
  // the L4 ring while health checks fail it out), so the deadline is
  // the only watchdog — no early exit.
  Duration deadline = config_.drainDeadline.count() > 0
                          ? config_.drainDeadline
                          : config_.drainPeriod;
  drainStart_ = Clock::now();
  drainTimer_ = loop_.runAfter(
      deadline,
      [this] {
        if (userConnCount() + trunkSessionCount() + mqttTunnels_.size() > 0) {
          drainDeadlineHit_ = true;
          bump(config_.name + ".drain_deadline_exceeded");
          bump("release.drain_deadline_exceeded");
          tlPoint("drain_deadline_exceeded");
        }
        terminate();
      },
      "timer.drain_deadline");
}

void Proxy::enterDrain() {
  // ZDR drain (Fig 5 step E): the updated instance has ACKed and owns
  // the listening sockets; we finish what we started and go away.
  if (draining_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  bump(config_.name + ".zdr_drain_started");
  // The drain trace: every reconnect_solicitation sent during this
  // drain carries it, so DCR resume spans recorded at the Edge and the
  // re-attach spans at the peer Origin all join one trace. The header
  // string doubles as the timeline window's detail for test/offline
  // correlation.
  drainTraceId_ = trace::newId();
  drainSpanId_ = trace::newId();
  tlBegin("zdr_drain",
          trace::formatTraceHeader(drainTraceId_, drainSpanId_));

  // Stop accepting: close our dup of the listening fds (the updated
  // instance keeps the sockets alive).
  if (httpListeners_) {
    httpListeners_->closeAll();
  }
  for (const auto& acc : mqttAcceptors_) {
    acc->close();
  }
  if (trunkListeners_) {
    trunkListeners_->closeAll();
  }
  if (quicServer_) {
    quicServer_->enterDrain();
  }

  if (config_.role == Role::kEdge) {
    forEachShard([this](Shard& sh) { edgeCloseIdleUserConns(sh); });
  }
  if (config_.role == Role::kOrigin) {
    forEachShard([this](Shard& sh) {
      for (const auto& tc : sh.trunkServerSessions) {
        tc->session->sendGoaway("zdr-drain");
        if (config_.dcrEnabled && !tc->brokerTunnels.empty()) {
          // §4.2: solicit the Edge to move MQTT tunnels to a healthy
          // peer before we terminate. Only trunks that carry a tunnel
          // are asked: a solicitation elsewhere moves nothing. The
          // payload carries the drain trace so the Edge's resume spans
          // join it.
          tc->session->sendControl(
              h2::FrameType::kReconnectSolicitation,
              trace::formatTraceHeader(drainTraceId_, drainSpanId_));
          bump(config_.name + ".dcr_solicitations_sent");
        }
      }
    });
    if (config_.dcrEnabled && config_.dcrSolicitRetries > 0) {
      // A solicitation frame can be lost in transit; re-send a few
      // times across the drain window. The Edge resume path is
      // idempotent, so duplicates are harmless. Each tick posts the
      // re-send onto every shard's own loop; posted work drains
      // before terminate's fan-out reaches the shard, and checks
      // terminated_ so a late tick is a no-op.
      solicitRetriesLeft_ = config_.dcrSolicitRetries;
      Duration interval =
          std::max(Duration{10}, config_.drainPeriod /
                                     (config_.dcrSolicitRetries + 1));
      solicitTimer_ = loop_.runEvery(
          interval,
          [this] {
            if (terminated() || solicitRetriesLeft_ <= 0) {
              loop_.cancelTimer(solicitTimer_);
              solicitTimer_ = 0;
              return;
            }
            --solicitRetriesLeft_;
            for (auto& shPtr : shards_) {
              Shard* sh = shPtr.get();
              sh->loop->runInLoop([this, sh] {
                if (terminated()) {
                  return;
                }
                for (const auto& tc : sh->trunkServerSessions) {
                  if (tc->brokerTunnels.empty()) {
                    continue;  // its tunnels moved (or it never had one)
                  }
                  tc->session->sendControl(
                      h2::FrameType::kReconnectSolicitation,
                      trace::formatTraceHeader(drainTraceId_, drainSpanId_));
                  bump(config_.name + ".dcr_solicitations_resent");
                }
              });
            }
          },
          "timer.dcr_solicit");
    }
  }

  // Drain-deadline watchdog: the deadline bounds the drain phase hard
  // (stragglers past it are force-closed and reported); the periodic
  // tick lets an instance whose work finished early leave without
  // waiting out the window.
  Duration deadline = config_.drainDeadline.count() > 0
                          ? config_.drainDeadline
                          : config_.drainPeriod;
  drainStart_ = Clock::now();
  drainTimer_ = loop_.runAfter(
      deadline,
      [this] {
        if (userConnCount() + trunkSessionCount() + mqttTunnels_.size() > 0) {
          drainDeadlineHit_ = true;
          bump(config_.name + ".drain_deadline_exceeded");
          bump("release.drain_deadline_exceeded");
          tlPoint("drain_deadline_exceeded");
        }
        terminate();
      },
      "timer.drain_deadline");
  if (config_.drainEarlyExit) {
    drainWatchTimer_ =
        loop_.runEvery(config_.drainWatchInterval,
                       [this] { drainWatchTick(); }, "timer.drain_watch");
  }
}

void Proxy::drainWatchTick() {
  if (terminated()) {
    if (drainWatchTimer_ != 0) {
      loop_.cancelTimer(drainWatchTimer_);
      drainWatchTimer_ = 0;
    }
    return;
  }
  if (userConnCount() == 0 && trunkSessionCount() == 0 &&
      mqttTunnels_.empty()) {
    bump(config_.name + ".drain_early_exit");
    tlPoint("drain_early_exit");
    terminate();
  }
}

void Proxy::terminate() {
  if (terminated_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  loop_.cancelTimer(drainTimer_);
  if (solicitTimer_ != 0) {
    loop_.cancelTimer(solicitTimer_);
    solicitTimer_ = 0;
  }
  if (drainWatchTimer_ != 0) {
    loop_.cancelTimer(drainWatchTimer_);
    drainWatchTimer_ = 0;
  }
  bump(config_.name + ".terminated");
  if (draining()) {
    tlEnd(hardDraining_.load(std::memory_order_acquire) ? "hard_drain"
                                                        : "zdr_drain");
  }
  tlPoint("terminated");
  // Forced closes past a missed drain deadline are deadline
  // casualties; everything else reset here is the ordinary
  // end-of-restart cut.
  const fr::DisruptionCause rstCause =
      drainDeadlineHit_ ? fr::DisruptionCause::kDrainDeadline
                        : fr::DisruptionCause::kResetOnRestart;
  // Connections that did not drain in time and are reset below. Only
  // meaningful after a drain — destructor teardown at test end is not
  // a forced close.
  size_t forcedCloses = mqttTunnels_.size();

  // Whatever is still alive now is disrupted — this is the source of
  // the TCP RSTs and errors the paper's Fig 12 counts.
  //
  // MQTT tunnels go first: they live on the primary loop but hold raw
  // pointers into shard 0's trunk links, which the fan-out below
  // destroys.
  for (const auto& tun :
       std::set<std::shared_ptr<MqttTunnel>>(mqttTunnels_)) {
    bump("edge.mqtt_tunnel_reset");
    if (!tun->disruptionNoted) {
      tun->disruptionNoted = true;
      noteDisruption(nullptr, rstCause, tun->resumeTraceId);
    }
    tun->userConn->close(std::make_error_code(std::errc::connection_reset));
  }
  mqttTunnels_.clear();

  // Shard-owned connections must die on their own loop threads: a
  // Connection's destructor unregisters from the loop that owns it.
  forEachShard([this, rstCause, &forcedCloses](Shard& sh) {
    forcedCloses += sh.userConns.size() + sh.trunkServerSessions.size();
    for (const auto& uc :
         std::set<std::shared_ptr<UserHttpConn>>(sh.userConns)) {
      if (uc->requestActive) {
        bump("edge.err.conn_rst");
        // Sets the per-request guard: close() below synchronously
        // re-enters the connection's close callback, whose own
        // attribution must then stay silent.
        edgeNoteDisruption(uc, rstCause);
      }
      uc->conn->close(std::make_error_code(std::errc::connection_reset));
    }
    sh.userConns.clear();

    for (auto& link : sh.trunkLinks) {
      if (link->reconnectTimer != 0) {
        sh.loop->cancelTimer(link->reconnectTimer);
        link->reconnectTimer = 0;
      }
      if (link->session) {
        link->session->closeNow();
      }
    }
    sh.trunkLinks.clear();

    for (const auto& tc : std::set<std::shared_ptr<TrunkServerConn>>(
             sh.trunkServerSessions)) {
      tc->session->closeNow(
          std::make_error_code(std::errc::connection_reset));
    }
    sh.trunkServerSessions.clear();

    if (sh.appPool) {
      sh.appPool->closeAll();
      // Destroy on the shard's own thread: the pool's reap timer is
      // armed on this loop.
      sh.appPool.reset();
    }

    // Uninstall our loop observer on the shard's own thread (no
    // dispatch can be concurrently inside it — we are the dispatch).
    // Guarded: during a ZDR overlap the takeover peer has already
    // installed its recorder on the shared primary loop.
    if (sh.recorder != nullptr && sh.loop->observer() == sh.recorder) {
      sh.loop->setObserver(nullptr);
    }
    sh.recorder = nullptr;
  });
  userConnCount_.store(0, std::memory_order_release);
  trunkSessionCount_.store(0, std::memory_order_release);
  if (draining()) {
    bump(config_.name + ".drain_forced_closes", forcedCloses);
    bump("release.drain_forced_closes", forcedCloses);
  }

  if (httpListeners_) {
    httpListeners_->closeAll();
  }
  for (const auto& acc : mqttAcceptors_) {
    acc->close();
  }
  if (trunkListeners_) {
    trunkListeners_->closeAll();
  }
  if (quicServer_) {
    quicServer_->shutdown();
  }
  takeoverServer_.reset();
  appHealth_.reset();
}

}  // namespace zdr::proxygen
