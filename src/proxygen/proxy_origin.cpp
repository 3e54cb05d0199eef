// Origin role: trunk server, HTTP forwarding to the App. Server tier
// (including Partial Post Replay), and MQTT relay to brokers with the
// Origin half of Downstream Connection Reuse.
#include "proxygen/proxy_detail.h"

#include "appserver/app_server.h"
#include "l4lb/hashing.h"

namespace zdr::proxygen {

void Proxy::originOnTrunkAccept(Shard& sh, TcpSocket sock) {
  // Runs on sh's loop thread; the session and every request/tunnel it
  // carries stay confined to that shard.
  if (terminated_) {
    return;
  }
  fault::tagFd(sock.fd(), "trunk.origin");
  static const uint32_t kAcceptTag = trace::internInstance("accept.trunk");
  fr::recordEvent(sh.events, fr::EventKind::kAccept, traceInstance_, 0, 0,
                  kAcceptTag);
  auto conn = Connection::make(*sh.loop, std::move(sock));
  bumpHot(hot_.trunkAccepted);
  auto tc = std::make_shared<TrunkServerConn>();
  tc->shard = &sh;
  tc->session = h2::Session::make(conn, h2::Session::Role::kServer);
  sh.trunkServerSessions.insert(tc);
  trunkSessionCount_.fetch_add(1, std::memory_order_acq_rel);

  h2::Session::Callbacks cbs;
  std::weak_ptr<TrunkServerConn> weakTc = tc;
  cbs.onHeaders = [this, weakTc](uint32_t sid, const h2::HeaderList& headers,
                                 bool end) {
    if (auto tc = weakTc.lock()) {
      originOnStreamHeaders(tc, sid, headers, end);
    }
  };
  cbs.onData = [this, weakTc](uint32_t sid, std::string_view data, bool end) {
    if (auto tc = weakTc.lock()) {
      originOnStreamData(tc, sid, data, end);
    }
  };
  cbs.onReset = [this, weakTc](uint32_t sid) {
    auto tc = weakTc.lock();
    if (!tc) {
      return;
    }
    if (auto it = tc->requests.find(sid); it != tc->requests.end()) {
      auto req = it->second;
      req->finished = true;
      tc->shard->loop->cancelTimer(req->timer);
      if (req->appConn) {
        req->appConn->close({});
      }
      tc->requests.erase(it);
    }
    if (auto it = tc->brokerTunnels.find(sid);
        it != tc->brokerTunnels.end()) {
      auto bt = it->second;
      bt->closed = true;
      if (bt->brokerConn) {
        bt->brokerConn->close({});
      }
      tc->brokerTunnels.erase(it);
    }
  };
  cbs.onClose = [this, weakTc](std::error_code) {
    auto tc = weakTc.lock();
    if (!tc) {
      return;
    }
    for (auto& [sid, req] : tc->requests) {
      req->finished = true;
      tc->shard->loop->cancelTimer(req->timer);
      if (req->appConn) {
        req->appConn->close({});
      }
    }
    tc->requests.clear();
    for (auto& [sid, bt] : tc->brokerTunnels) {
      bt->closed = true;
      if (bt->brokerConn) {
        bt->brokerConn->close({});
      }
    }
    tc->brokerTunnels.clear();
    if (tc->shard->trunkServerSessions.erase(tc) > 0) {
      trunkSessionCount_.fetch_sub(1, std::memory_order_acq_rel);
    }
  };
  tc->session->setCallbacks(std::move(cbs));
  tc->session->start();

  if (draining_) {
    // A session raced our drain start: tell it immediately.
    tc->session->sendGoaway("draining");
  }
}

void Proxy::originOnStreamHeaders(const std::shared_ptr<TrunkServerConn>& tc,
                                  uint32_t streamId,
                                  const h2::HeaderList& headers,
                                  bool endStream) {
  std::string tunnelKind;
  std::string userId;
  bool resume = false;
  uint64_t traceId = 0;
  uint64_t parentSpan = 0;
  http::Request head;
  for (const auto& [n, v] : headers) {
    if (n == kHdrTunnel) {
      tunnelKind = v;
    } else if (n == kHdrUserId) {
      userId = v;
    } else if (n == kHdrResume) {
      resume = v == "1";
    } else if (n == kHdrTrace) {
      // Intercepted, never forwarded as-is: each hop re-stamps the
      // header with its own span as the parent.
      trace::parseTraceHeader(v, traceId, parentSpan);
    } else if (n == kHdrMethod) {
      head.method = v;
    } else if (n == kHdrPath) {
      head.path = v;
    } else {
      head.headers.add(n, v);
    }
  }

  if (tunnelKind == "mqtt") {
    originOpenBrokerTunnel(tc, streamId, userId, resume, traceId,
                           parentSpan);
    return;
  }

  // Plain HTTP request from the Edge.
  auto req = std::make_shared<OriginRequest>();
  req->shard = tc->shard;
  req->tc = tc;
  req->streamId = streamId;
  req->head = std::move(head);
  req->isPost = req->head.method == "POST";
  req->clientDone = endStream;
  req->reqStartNs = trace::nowNs();
  if (trace::tracingEnabled() && traceId != 0) {
    req->trace.traceId = traceId;
    req->trace.parentId = parentSpan;
    req->trace.spanId = trace::newId();
  }
  tc->requests[streamId] = req;
  bumpHot(hot_.requests);
  noteShardRequest(*tc->shard);
  originStartAppRequest(req);
}

void Proxy::originOnStreamData(const std::shared_ptr<TrunkServerConn>& tc,
                               uint32_t streamId, std::string_view data,
                               bool endStream) {
  if (auto it = tc->requests.find(streamId); it != tc->requests.end()) {
    auto req = it->second;
    if (endStream) {
      req->clientDone = true;
    }
    if (req->connected && req->appConn && req->appConn->open()) {
      Buffer out;
      if (!data.empty()) {
        http::appendChunk(out, data);
        req->bodyForwarded += data.size();
        if (req->isPost) {
          req->retainSent(data);
        }
      }
      if (req->clientDone) {
        http::appendFinalChunk(out);
      }
      req->appConn->send(out.readable());
    } else {
      req->pendingBody.append(
          std::as_bytes(std::span(data.data(), data.size())));
    }
    return;
  }
  if (auto it = tc->brokerTunnels.find(streamId);
      it != tc->brokerTunnels.end()) {
    auto bt = it->second;
    if (bt->up && bt->brokerConn && bt->brokerConn->open()) {
      bt->brokerConn->send(data);
    } else {
      bt->pendingToBroker.append(
          std::as_bytes(std::span(data.data(), data.size())));
    }
    if (endStream && bt->brokerConn) {
      bt->brokerConn->closeAfterFlush();
    }
  }
}

// ------------------------------------------------------- app-server leg

const BackendRef* Proxy::originPickAppServer(Shard& sh,
                                             const std::string& excludeName) {
  if (config_.appServers.empty()) {
    return nullptr;
  }
  // Round-robin over healthy app servers, skipping excludes. The
  // cursor is per-shard; the HealthChecker is shared and internally
  // locked.
  for (size_t i = 0; i < config_.appServers.size(); ++i) {
    const BackendRef& cand =
        config_.appServers[(sh.appRoundRobin + i) % config_.appServers.size()];
    if (cand.name == excludeName) {
      continue;
    }
    if (appHealth_ && !appHealth_->isHealthy(cand.name)) {
      continue;
    }
    if (sh.appPool && sh.appPool->breakerOpen(cand.name)) {
      continue;  // ejected outlier; half-open probes re-admit it
    }
    sh.appRoundRobin = (sh.appRoundRobin + i + 1) % config_.appServers.size();
    return &cand;
  }
  return nullptr;
}

void Proxy::originStartAppRequest(const std::shared_ptr<OriginRequest>& req) {
  ++req->attempts;
  if (req->attempts > config_.pprMaxRetries + 1) {
    bump(config_.name + ".ppr_retries_exhausted");
    originFailRequest(req, 500, "replay retries exhausted",
                      fr::DisruptionCause::kBreaker);
    return;
  }
  // Every attempt after the first is a retry and must fit in the
  // shard's budget: when a backend dies, bounded retries fail over;
  // unbounded retries would multiply the tier-wide load exactly when
  // the tier is least able to absorb it.
  if (req->attempts > 1 && !trySpendRetryToken(*req->shard)) {
    originFailRequest(req, 503, "retry budget exhausted",
                      fr::DisruptionCause::kBreaker);
    return;
  }
  bump(config_.name + ".app_attempts");
  if (req->trace.valid()) {
    // Every PPR attempt gets its own span on the SAME trace id, so a
    // replayed POST shows both app attempts under one trace.
    req->attemptSpanId = trace::newId();
    req->attemptStartNs = trace::nowNs();
  }
  originConnectApp(req, req->appName);
}

void Proxy::originConnectApp(const std::shared_ptr<OriginRequest>& req,
                             const std::string& excludeName) {
  const BackendRef* target = nullptr;
  for (size_t i = 0; i < config_.appServers.size(); ++i) {
    const BackendRef* cand = originPickAppServer(*req->shard, excludeName);
    if (cand == nullptr) {
      break;
    }
    if (req->excluded.count(cand->name) == 0) {
      target = cand;
      break;
    }
  }
  if (target == nullptr) {
    // Fall back to any non-excluded server even if health data is
    // stale — §4.4: retries across the tier "never result in a failure
    // due to unavailability of an active HHVM server".
    for (const auto& cand : config_.appServers) {
      if (req->excluded.count(cand.name) == 0 && cand.name != excludeName) {
        target = &cand;
        break;
      }
    }
  }
  if (target == nullptr) {
    originFailRequest(req, 503, "no app server available",
                      fr::DisruptionCause::kBreaker);
    return;
  }
  req->appName = target->name;
  req->resParser.reset();

  const uint64_t connectStartNs = trace::nowNs();
  req->shard->appPool->acquire(
      target->name, target->addr,
      [this, req, connectStartNs](ConnectionPtr conn, std::error_code ec,
                                  bool reused) {
        if (req->finished) {
          if (conn && !reused) {
            conn->close({});
          } else if (conn) {
            req->shard->appPool->release(req->appName, std::move(conn));
          }
          return;
        }
        if (ec) {
          if (req->trace.valid() && req->attemptSpanId != 0) {
            // detail 0 ⇒ the attempt died before any response.
            recordSpan(req->shard->spans, req->trace.traceId,
                       req->attemptSpanId, req->trace.spanId,
                       trace::SpanKind::kOriginAppAttempt, traceInstance_,
                       req->attemptStartNs, trace::nowNs(), 0);
            req->attemptSpanId = 0;
          }
          // Draining app servers refuse new connections; try the next
          // one (§4.4).
          req->excluded.insert(req->appName);
          bump(config_.name + ".app_connect_failed");
          originStartAppRequest(req);
          return;
        }
        if (req->trace.valid()) {
          recordSpan(req->shard->spans, req->trace.traceId, trace::newId(),
                     req->attemptSpanId, trace::SpanKind::kOriginAppConnect,
                     traceInstance_, connectStartNs, trace::nowNs(),
                     reused ? 1 : 0);
        }
        req->appConn = std::move(conn);
        req->connected = true;

        req->appConn->setDataCallback([this, req](Buffer& in) {
          while (!in.empty() && !req->finished) {
            auto st = req->resParser.feed(in);
            if (st == http::ParseStatus::kError) {
              req->shard->appPool->recordFailure(req->appName);
              originFailRequest(req, 502, "bad app response",
                                fr::DisruptionCause::kTrunkAbort);
              return;
            }
            if (req->resParser.messageComplete()) {
              originOnAppResponse(req);
              return;
            }
            if (st == http::ParseStatus::kNeedMore ||
                st == http::ParseStatus::kHeadersDone) {
              return;
            }
          }
        });
        req->appConn->setCloseCallback([this, req](std::error_code) {
          if (!req->finished && !req->resParser.messageComplete()) {
            if (req->trace.valid() && req->attemptSpanId != 0) {
              recordSpan(req->shard->spans, req->trace.traceId,
                         req->attemptSpanId, req->trace.spanId,
                         trace::SpanKind::kOriginAppAttempt, traceInstance_,
                         req->attemptStartNs, trace::nowNs(), 0);
              req->attemptSpanId = 0;
            }
            req->shard->appPool->recordFailure(req->appName);
            // An idempotent request that saw no response bytes fails
            // over to another server (budget-gated, like a connect
            // failure). A POST died mid-execution with no 379 handed
            // back — nothing safe to replay (§4.3 caveat).
            if (!req->isPost) {
              req->excluded.insert(req->appName);
              req->connected = false;
              req->appConn = nullptr;
              originStartAppRequest(req);
              return;
            }
            originFailRequest(req, 502, "app connection lost",
                              fr::DisruptionCause::kTrunkAbort);
          }
        });
        if (!req->appConn->started()) {
          req->appConn->start();
        }

        // Send the request head; the body always streams as chunks so
        // in-flight hand-offs need no Content-Length bookkeeping.
        http::Request out = req->head;
        out.headers.remove("Content-Length");
        out.headers.remove("Transfer-Encoding");
        if (req->trace.valid() && req->attemptSpanId != 0) {
          // set(), not add(): a 379-reconstructed head re-added the
          // echoed x-zdr-trace, and this attempt's span replaces it.
          out.headers.set(std::string(kHdrTrace),
                          trace::formatTraceHeader(req->trace.traceId,
                                                   req->attemptSpanId));
        }
        Buffer buf;
        if (req->isPost || !req->pendingBody.empty() || !req->clientDone) {
          out.headers.set("Transfer-Encoding", "chunked");
          http::serializeHead(out, buf);
          if (!req->pendingBody.empty()) {
            http::appendChunk(buf, req->pendingBody.view());
            req->bodyForwarded += req->pendingBody.size();
            if (req->isPost) {
              req->retainSent(req->pendingBody.view());
            }
            req->pendingBody.clear();
          }
          if (req->clientDone) {
            http::appendFinalChunk(buf);
          }
        } else {
          http::serializeHead(out, buf);
        }
        req->appConn->send(buf.readable());
      });
}

void Proxy::originOnAppResponse(const std::shared_ptr<OriginRequest>& req) {
  const http::Response& res = req->resParser.message();
  if (req->trace.valid() && req->attemptSpanId != 0) {
    recordSpan(req->shard->spans, req->trace.traceId, req->attemptSpanId,
               req->trace.spanId, trace::SpanKind::kOriginAppAttempt,
               traceInstance_, req->attemptStartNs, trace::nowNs(),
               static_cast<uint64_t>(res.status));
    req->attemptSpanId = 0;
  }
  // Any complete response — including a 379 drain hand-back, which
  // comes from a healthy, merely-restarting server — closes an open
  // breaker for this backend.
  req->shard->appPool->recordSuccess(req->appName);

  if (res.isPartialPostReplay()) {
    if (!config_.pprEnabled) {
      // §5.2: the proxy replays only when the feature is expected of
      // this upstream. An unexpected 379 is treated as a server
      // failure — and it must never reach the end user as-is.
      bump(config_.name + ".ppr_gate_rejected");
      originFailRequest(req, 500, "unexpected 379 from upstream",
                        fr::DisruptionCause::kBreaker);
      return;
    }
    // §4.3: the app server is restarting and handed the partial
    // request back. Rebuild and replay to a healthy peer; 379 must
    // never propagate further downstream.
    bump(config_.name + ".ppr_379_received");
    originReplayPartialPost(req, res);
    return;
  }
  if (res.status == http::kPartialPostStatus) {
    // 379 without the exact status message: a buggy upstream using an
    // unreserved code (§5.2) — treat as an ordinary response.
    bump(config_.name + ".ppr_gate_rejected");
  }
  originFinishRequest(req, res);
}

void Proxy::originReplayPartialPost(const std::shared_ptr<OriginRequest>& req,
                                    const http::Response& res379) {
  auto rebuilt = appserver::reconstructRequestFrom379(res379);
  if (!rebuilt) {
    originFailRequest(req, 500, "malformed 379",
                      fr::DisruptionCause::kBreaker);
    return;
  }
  // The server that bounced us is restarting: exclude it and carry the
  // already-received body into the retry.
  req->excluded.insert(req->appName);
  if (req->appConn) {
    req->appConn->close({});
    req->appConn = nullptr;
  }
  req->connected = false;

  http::Request head = std::move(*rebuilt);
  std::string bodySoFar = std::move(head.body);
  head.body.clear();
  req->head = std::move(head);

  // The 379 echoes what the server RECEIVED; anything we wrote that was
  // still in flight when it built the response is missing and must be
  // recovered from our bounded sent-tail.
  if (req->bodyForwarded > bodySoFar.size()) {
    uint64_t missing = req->bodyForwarded - bodySoFar.size();
    if (missing > req->sentTail.size()) {
      // Tail window exceeded (pathologically slow echo): unrecoverable.
      bump(config_.name + ".ppr_tail_exhausted");
      originFailRequest(req, 500, "in-flight bytes unrecoverable",
                        fr::DisruptionCause::kBreaker);
      return;
    }
    bump(config_.name + ".ppr_inflight_recovered");
    bodySoFar.append(req->sentTail.substr(req->sentTail.size() - missing));
  }

  // Everything the dying server had received (plus recovered in-flight
  // bytes) becomes pending payload, ahead of whatever the client still
  // streams in.
  Buffer rebuiltPending;
  rebuiltPending.append(bodySoFar);
  rebuiltPending.append(req->pendingBody.readable());
  req->pendingBody = std::move(rebuiltPending);
  req->bodyForwarded = 0;
  req->sentTail.clear();  // re-accumulates against the replay target
  bump(config_.name + ".ppr_replays");
  if (req->trace.valid()) {
    // Instant marker: the replay decision point, between the bounced
    // attempt's span and the next attempt's.
    const uint64_t now = trace::nowNs();
    recordSpan(req->shard->spans, req->trace.traceId, trace::newId(),
               req->trace.spanId, trace::SpanKind::kOriginPprReplay,
               traceInstance_, now, now,
               static_cast<uint64_t>(req->attempts));
  }
  originStartAppRequest(req);
}

void Proxy::originFinishRequest(const std::shared_ptr<OriginRequest>& req,
                                const http::Response& res) {
  if (req->finished) {
    return;
  }
  req->finished = true;
  req->shard->loop->cancelTimer(req->timer);
  const uint64_t endNs = trace::nowNs();
  if (req->reqStartNs != 0 && req->shard->requestUs != nullptr) {
    req->shard->requestUs->record(
        static_cast<double>(endNs - req->reqStartNs) / 1000.0);
  }
  if (req->trace.valid()) {
    recordSpan(req->shard->spans, req->trace.traceId, req->trace.spanId,
               req->trace.parentId, trace::SpanKind::kOriginRequest,
               traceInstance_, req->reqStartNs, endNs,
               static_cast<uint64_t>(res.status));
  }
  auto tc = req->tc.lock();
  if (tc && tc->session->open()) {
    h2::HeaderList headers;
    headers.emplace_back(std::string(kHdrStatus),
                         std::to_string(res.status));
    for (const auto& [n, v] : res.headers.all()) {
      if (!http::Headers::nameEquals(n, "Content-Length") &&
          !http::Headers::nameEquals(n, "Transfer-Encoding")) {
        headers.emplace_back(n, v);
      }
    }
    if (!res.body.empty()) {
      // The exact body size (the response is fully assembled here).
      // The edge uses it to stream large bodies straight to the user
      // — it must write the head, Content-Length included, before the
      // first DATA frame lands.
      headers.emplace_back("Content-Length", std::to_string(res.body.size()));
    }
    tc->session->sendHeaders(req->streamId, headers, res.body.empty());
    if (!res.body.empty()) {
      // Bounded DATA frames: one giant frame would trip the peer's
      // kMaxFramePayload guard, and the edge's streaming relay moves
      // each fragment straight to the user as it arrives.
      constexpr size_t kDataChunk = 256 * 1024;
      std::string_view body = res.body;
      while (!body.empty()) {
        size_t n = std::min(body.size(), kDataChunk);
        tc->session->sendData(req->streamId, body.substr(0, n),
                              n == body.size());
        body.remove_prefix(n);
      }
    }
    tc->requests.erase(req->streamId);
  }
  if (req->appConn) {
    // Recycle the upstream connection when it is provably clean: a
    // complete non-error exchange whose request body fully went out.
    // A 379 means the server is restarting — never pool it.
    bool reusable = req->appConn->open() && res.status < 500 &&
                    !res.isPartialPostReplay() && req->clientDone &&
                    req->pendingBody.empty() &&
                    req->resParser.messageComplete();
    if (reusable) {
      req->appConn->setDataCallback(nullptr);
      req->appConn->setCloseCallback(nullptr);
      req->shard->appPool->release(req->appName, std::move(req->appConn));
    } else {
      req->appConn->closeAfterFlush();
    }
    req->appConn = nullptr;
  }
  bumpHot(hot_.responsesSent);
}

void Proxy::originFailRequest(const std::shared_ptr<OriginRequest>& req,
                              int status, const std::string& why,
                              fr::DisruptionCause cause) {
  if (req->finished) {
    return;
  }
  if (req->appConn && req->appConn->faultInjections() > 0) {
    cause = fr::DisruptionCause::kFaultInjected;
  }
  noteDisruption(req->shard, cause, req->trace.traceId);
  http::Response res;
  res.status = status;
  res.reason = std::string(http::defaultReason(status));
  res.body = why;
  bump(config_.name + ".err." + std::to_string(status));
  originFinishRequest(req, res);
}

// ---------------------------------------------------------- broker leg

const BackendRef* Proxy::originBrokerFor(const std::string& userId) {
  if (config_.brokers.empty()) {
    return nullptr;
  }
  // Consistent hashing on user-id keeps the user→broker mapping stable
  // across proxies, which is what makes the Origin "stateless" with
  // respect to MQTT tunnels (§4.2).
  auto idx = brokerHash_->pick(l4lb::hashBytes(userId));
  if (!idx) {
    return nullptr;
  }
  return &config_.brokers[*idx];
}

void Proxy::originOpenBrokerTunnel(const std::shared_ptr<TrunkServerConn>& tc,
                                   uint32_t streamId,
                                   const std::string& userId, bool resume,
                                   uint64_t traceId,
                                   uint64_t parentSpanId) {
  auto bt = std::make_shared<BrokerTunnel>();
  bt->tc = tc;
  bt->streamId = streamId;
  bt->userId = userId;
  bt->resume = resume;
  if (resume && trace::tracingEnabled() && traceId != 0) {
    // The edge stamped the resume stream with the draining peer's
    // drain trace; our re-attach span joins it.
    bt->trace.traceId = traceId;
    bt->trace.parentId = parentSpanId;
    bt->trace.spanId = trace::newId();
    bt->resumeStartNs = trace::nowNs();
  }
  tc->brokerTunnels[streamId] = bt;
  bump(config_.name + (resume ? ".dcr_reconnect_received"
                              : ".mqtt_tunnel_opened"));

  const BackendRef* broker = originBrokerFor(userId);
  if (broker == nullptr) {
    h2::HeaderList headers{{std::string(kHdrStatus), "503"}};
    tc->session->sendHeaders(streamId, headers, true);
    tc->brokerTunnels.erase(streamId);
    return;
  }

  Connector::connect(
      *tc->shard->loop, broker->addr,
      [this, bt](TcpSocket sock, std::error_code ec) {
        auto tc = bt->tc.lock();
        if (!tc || bt->closed) {
          return;
        }
        if (ec) {
          recordSpan(tc->shard->spans, bt->trace.traceId, bt->trace.spanId,
                     bt->trace.parentId,
                     trace::SpanKind::kOriginDcrReconnect, traceInstance_,
                     bt->resumeStartNs, trace::nowNs(), 502);
          h2::HeaderList headers{{std::string(kHdrStatus), "502"}};
          tc->session->sendHeaders(bt->streamId, headers, true);
          tc->brokerTunnels.erase(bt->streamId);
          return;
        }
        fault::tagFd(sock.fd(), "origin.broker");
        bt->brokerConn = Connection::make(loop_, std::move(sock));

        bt->brokerConn->setDataCallback([this, bt](Buffer& in) {
          auto tc = bt->tc.lock();
          if (!tc || bt->closed) {
            in.clear();
            return;
          }
          if (bt->resume && !bt->up) {
            // DCR re-attach: consume the broker's CONNACK ourselves;
            // the end user must never see this handshake (§4.2).
            bt->resumeParseBuf.append(in.readable());
            in.clear();
            bool malformed = false;
            auto pkt = mqtt::decode(bt->resumeParseBuf, malformed);
            if (malformed) {
              h2::HeaderList headers{{std::string(kHdrStatus), "502"}};
              tc->session->sendHeaders(bt->streamId, headers, true);
              bt->brokerConn->close({});
              tc->brokerTunnels.erase(bt->streamId);
              return;
            }
            if (!pkt) {
              return;
            }
            if (pkt->type == mqtt::PacketType::kConnack &&
                pkt->returnCode == mqtt::kConnAccepted &&
                pkt->sessionPresent) {
              // connect_ack: context found, relay path re-established.
              bt->up = true;
              bump(config_.name + ".dcr_connect_ack");
              recordSpan(tc->shard->spans, bt->trace.traceId,
                         bt->trace.spanId, bt->trace.parentId,
                         trace::SpanKind::kOriginDcrReconnect,
                         traceInstance_, bt->resumeStartNs, trace::nowNs(),
                         200);
              h2::HeaderList headers{{std::string(kHdrStatus), "200"}};
              tc->session->sendHeaders(bt->streamId, headers, false);
              // Any publishes that followed the CONNACK flow onward.
              if (!bt->resumeParseBuf.empty()) {
                tc->session->sendData(bt->streamId,
                                      bt->resumeParseBuf.view(), false);
                bt->resumeParseBuf.clear();
              }
            } else {
              // connect_refuse: no context at the broker.
              bump(config_.name + ".dcr_connect_refuse");
              recordSpan(tc->shard->spans, bt->trace.traceId,
                         bt->trace.spanId, bt->trace.parentId,
                         trace::SpanKind::kOriginDcrReconnect,
                         traceInstance_, bt->resumeStartNs, trace::nowNs(),
                         410);
              h2::HeaderList headers{{std::string(kHdrStatus), "410"}};
              tc->session->sendHeaders(bt->streamId, headers, true);
              bt->brokerConn->close({});
              tc->brokerTunnels.erase(bt->streamId);
            }
            return;
          }
          // Established tunnel: relay bytes to the edge.
          tc->session->sendData(bt->streamId, in.view(), false);
          in.clear();
        });
        bt->brokerConn->setCloseCallback([this, bt](std::error_code) {
          auto tc = bt->tc.lock();
          if (tc && !bt->closed) {
            bt->closed = true;
            tc->session->sendReset(bt->streamId);
            tc->brokerTunnels.erase(bt->streamId);
          }
        });
        bt->brokerConn->start();

        if (bt->resume) {
          // §4.2 step B2: re-attach to the user's broker context with a
          // resume CONNECT carrying the user-id.
          mqtt::Packet connect;
          connect.type = mqtt::PacketType::kConnect;
          connect.clientId = bt->userId;
          connect.cleanSession = false;
          Buffer out;
          mqtt::encode(connect, out);
          bt->brokerConn->send(out.readable());
        } else {
          bt->up = true;
          auto tcNow = bt->tc.lock();
          if (tcNow) {
            h2::HeaderList headers{{std::string(kHdrStatus), "200"}};
            tcNow->session->sendHeaders(bt->streamId, headers, false);
          }
          if (!bt->pendingToBroker.empty()) {
            bt->brokerConn->send(bt->pendingToBroker.readable());
            bt->pendingToBroker.clear();
          }
        }
      });
}

}  // namespace zdr::proxygen
