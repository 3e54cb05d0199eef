// Edge role: user-facing VIP handling, trunk-link management, local
// cache serving, and the Edge half of Downstream Connection Reuse.
#include <cstdint>

#include "metrics/stats_json.h"
#include "metrics/trace_export.h"
#include "proxygen/proxy_detail.h"

namespace zdr::proxygen {

namespace {

bool isCacheablePath(const std::string& path) {
  return path.rfind("/cached/", 0) == 0;
}

}  // namespace

// ------------------------------------------------------------- HTTP accept

void Proxy::edgeOnHttpAccept(Shard& sh, TcpSocket sock) {
  // Runs on sh's loop thread; everything the connection touches from
  // here on is confined to that shard.
  if (terminated_) {
    return;
  }
  bumpHot(hot_.httpConnAccepted);
  fault::tagFd(sock.fd(), "edge.user");
  // Interned once: accepts are per-connection hot path, the intern
  // mutex must not be.
  static const uint32_t kAcceptTag = trace::internInstance("accept.http");
  fr::recordEvent(sh.events, fr::EventKind::kAccept, traceInstance_, 0, 0,
                  kAcceptTag);
  auto uc = std::make_shared<UserHttpConn>();
  uc->shard = &sh;
  uc->conn = Connection::make(*sh.loop, std::move(sock));
  sh.userConns.insert(uc);
  userConnCount_.fetch_add(1, std::memory_order_acq_rel);

  // The parser's body callback captures a raw pointer: the parser is a
  // member of *uc and cannot outlive it.
  UserHttpConn* raw = uc.get();
  uc->parser.setBodyCallback(
      [raw](std::string_view frag) { raw->bodyPending.append(frag); });

  auto process = [this, uc]() {
    while (!uc->stage.empty() || uc->parser.messageComplete()) {
      if (uc->requestActive && uc->responseStarted) {
        return;  // no pipelining: wait for the response to finish
      }
      auto st = uc->parser.feed(uc->stage);
      if (st == http::ParseStatus::kError) {
        bump("edge.err.bad_request");
        uc->conn->close(std::make_error_code(std::errc::protocol_error));
        return;
      }
      if (uc->parser.headersComplete() && !uc->headersHandled) {
        uc->headersHandled = true;
        uc->requestActive = true;
        edgeOnHttpRequestHeaders(uc);
        if (!uc->conn->open()) {
          return;
        }
      }
      if (!uc->bodyPending.empty()) {
        edgeOnHttpBody(uc, uc->bodyPending, uc->parser.messageComplete());
        uc->bodyPending.clear();
      }
      if (uc->parser.messageComplete()) {
        if (!uc->servedLocally && uc->link != nullptr && !uc->upstreamEnded) {
          uc->upstreamEnded = true;
          uc->link->session->sendData(uc->streamId, {}, true);
        }
        if (uc->servedLocally) {
          // Response already went out; recycle for the next request.
          edgeFinishUserRequest(uc);
          continue;
        }
        return;  // await upstream response
      }
      if (uc->stage.empty()) {
        return;
      }
    }
  };

  uc->conn->setDataCallback([raw, process](Buffer& in) {
    raw->stage.append(in.readable());
    in.clear();
    process();
  });
  uc->conn->setCloseCallback([this, uc](std::error_code ec) {
    // Attribution: a scripted fault on this connection trumps the
    // generic causes (the E2E injects faults and demands they are
    // blamed on the fault, not on the restart).
    const bool sabotaged = uc->conn->faultInjections() > 0;
    if (uc->requestActive) {
      if (ec && uc->responseStarted && uc->conn->pendingOutput() > 0) {
        // The response could not be written out: the user experiences
        // a write timeout (Fig 12's worst disruption class).
        bump("edge.err.write_timeout");
        edgeNoteDisruption(uc, sabotaged
                                   ? fr::DisruptionCause::kFaultInjected
                                   : fr::DisruptionCause::kTimeout);
      } else if (ec) {
        bump("edge.err.conn_rst");
        edgeNoteDisruption(uc, sabotaged
                                   ? fr::DisruptionCause::kFaultInjected
                                   : fr::DisruptionCause::kResetOnRestart);
      }
      if (uc->link != nullptr) {
        if (uc->link->session) {
          uc->link->session->sendReset(uc->streamId);
        }
        uc->link->httpStreams.erase(uc->streamId);
      }
      uc->shard->loop->cancelTimer(uc->timeoutTimer);
    } else if (ec && sabotaged && uc->conn->pendingOutput() > 0) {
      // The request ledger already closed (responses flush at loop
      // end, after edgeFinishUserRequest), but a scripted fault killed
      // the connection with response bytes still queued — the client
      // never got the answer, so this is just as client-visible as a
      // mid-request reset and must not escape attribution.
      bump("edge.err.write_timeout");
      edgeNoteDisruption(uc, fr::DisruptionCause::kFaultInjected);
    }
    if (uc->countedInFlight) {
      uc->countedInFlight = false;
      edgeNoteRequestDone(*uc->shard);
    }
    if (uc->shard->userConns.erase(uc) > 0) {
      userConnCount_.fetch_sub(1, std::memory_order_acq_rel);
    }
  });
  uc->conn->start();
}

void Proxy::edgeOnHttpRequestHeaders(const std::shared_ptr<UserHttpConn>& uc) {
  const http::Request& req = uc->parser.message();
  bumpHot(hot_.requests);
  uc->reqStartNs = trace::nowNs();
  if (trace::tracingEnabled()) {
    // The edge is the trace root — unless the client already carries
    // an x-zdr-trace (a downstream edge, or a test), in which case we
    // join its trace as a child hop.
    uc->trace.traceId = trace::newId();
    uc->trace.spanId = trace::newId();
    if (auto tv = req.headers.get(kHdrTrace)) {
      uint64_t t = 0;
      uint64_t sp = 0;
      if (trace::parseTraceHeader(*tv, t, sp)) {
        uc->trace.traceId = t;
        uc->trace.parentId = sp;
      }
    }
  }

  // Local endpoints: L4 health checks.
  if (req.path == "/__health") {
    http::Response res;
    res.status = hardDraining_ ? 503 : 200;
    res.body = hardDraining_ ? "draining" : "ok";
    edgeServeLocal(uc, res);
    return;
  }

  // Live introspection: JSON snapshot of every instrument plus recent
  // spans and the release timeline. Health-check-exempt from admission
  // like /__health — a shedding proxy is exactly the one you need to
  // scrape.
  if (req.path == "/__stats" || req.path.rfind("/__stats?", 0) == 0) {
    bump("edge.stats_scrapes");
    http::Response res;
    res.status = 200;
    res.headers.set("Content-Type", "application/json");
    if (metrics_ != nullptr) {
      stats::StatsOptions so;
      so.instance = config_.name;
      if (req.path.find("spans=all") != std::string::npos) {
        so.maxSpansPerSink = SIZE_MAX;
      }
      res.body = stats::renderStatsJson(*metrics_, so);
    } else {
      res.body = "{}";
    }
    edgeServeLocal(uc, res);
    return;
  }

  // Flight-recorder capture: spans + event rings + release timeline in
  // one doc (?events=all / ?spans=all lift the per-ring caps,
  // ?format=chrome serves Chrome/Perfetto trace-event JSON directly).
  // Health-check-exempt like /__stats — captures are most valuable
  // exactly when the proxy is drowning or draining.
  if (req.path == "/__trace" || req.path.rfind("/__trace?", 0) == 0) {
    bump("edge.recorder.scrapes");
    http::Response res;
    res.status = 200;
    res.headers.set("Content-Type", "application/json");
    if (metrics_ != nullptr) {
      fr::TraceCaptureOptions to;
      to.instance = config_.name;
      if (req.path.find("spans=all") != std::string::npos) {
        to.maxSpansPerSink = SIZE_MAX;
      }
      if (req.path.find("events=all") != std::string::npos) {
        to.maxEventsPerRing = SIZE_MAX;
      }
      res.body = req.path.find("format=chrome") != std::string::npos
                     ? fr::renderChromeTrace(*metrics_, to)
                     : fr::renderTraceCapture(*metrics_, to);
    } else {
      res.body = "{}";
    }
    edgeServeLocal(uc, res);
    return;
  }

  // Edge cache (Direct-Server-Return model for cacheable content §2.2).
  if (config_.edgeCacheEnabled && req.method == "GET" &&
      isCacheablePath(req.path)) {
    if (auto cached = edgeCache_.get(req.path)) {
      bumpHot(hot_.cacheHit);
      edgeServeLocal(uc, *cached);
      return;
    }
    uc->cacheKey = req.path;
    bumpHot(hot_.cacheMiss);
  }

  // Admission control: requests heading upstream count against the
  // shard's in-flight cap. Health checks and cache hits (served above,
  // cheaply and locally) are exempt — shedding them would tell the L4
  // the instance is down when it is merely busy.
  noteShardRequest(*uc->shard);
  if (edgeMaybeShed(uc)) {
    return;
  }

  edgeDispatchUpstream(uc);
}

void Proxy::edgeNoteDisruption(const std::shared_ptr<UserHttpConn>& uc,
                               fr::DisruptionCause cause) {
  if (uc->disruptionNoted) {
    return;
  }
  uc->disruptionNoted = true;
  noteDisruption(uc->shard, cause, uc->trace.traceId);
}

bool Proxy::edgeMaybeShed(const std::shared_ptr<UserHttpConn>& uc) {
  Shard& sh = *uc->shard;
  const size_t cap = config_.shedMaxInFlightPerShard;
  if (cap == 0) {
    return false;
  }
  if (sh.inFlightRequests >= cap) {
    // Fast-fail: a 503 in microseconds beats a 504 after the full
    // request timeout, and Retry-After steers well-behaved clients to
    // back off rather than hammer an overloaded shard.
    bump("edge.err.shed");
    edgeNoteDisruption(uc, fr::DisruptionCause::kShed);
    http::Response res;
    res.status = 503;
    res.reason = std::string(http::defaultReason(503));
    res.headers.set("Retry-After", "1");
    res.body = "overloaded";
    edgeServeLocal(uc, res);
    return true;
  }
  uc->countedInFlight = true;
  ++sh.inFlightRequests;
  if (sh.inflightPeak != nullptr) {
    sh.inflightPeak->update(static_cast<double>(sh.inFlightRequests));
  }
  const size_t high = config_.shedPauseHighWatermark > 0
                          ? config_.shedPauseHighWatermark
                          : cap - cap / 4;
  if (!sh.acceptsPaused && sh.inFlightRequests >= high &&
      httpListeners_ != nullptr) {
    // Above the high watermark stop accepting: backpressure lands in
    // the listen backlog (and eventually the L4) instead of growing
    // the in-flight set until everything sheds.
    sh.acceptsPaused = true;
    httpListeners_->pauseOn(sh.idx);
    bump("edge.accept_paused");
    // Shed windows are per-shard phases (shards pause independently,
    // so the key carries the shard index to pair begin/end correctly).
    tlBegin("accept_paused.w" + std::to_string(sh.idx));
  }
  return false;
}

void Proxy::edgeNoteRequestDone(Shard& sh) {
  if (sh.inFlightRequests > 0) {
    --sh.inFlightRequests;
  }
  const size_t cap = config_.shedMaxInFlightPerShard;
  if (!sh.acceptsPaused || cap == 0) {
    return;
  }
  const size_t high = config_.shedPauseHighWatermark > 0
                          ? config_.shedPauseHighWatermark
                          : cap - cap / 4;
  const size_t low = config_.shedResumeLowWatermark > 0
                         ? config_.shedResumeLowWatermark
                         : high / 2;
  if (sh.inFlightRequests <= low) {
    sh.acceptsPaused = false;
    if (httpListeners_ != nullptr) {
      httpListeners_->resumeOn(sh.idx);
    }
    bump("edge.accept_resumed");
    tlEnd("accept_paused.w" + std::to_string(sh.idx));
  }
}

void Proxy::edgeDispatchUpstream(const std::shared_ptr<UserHttpConn>& uc) {
  const http::Request& req = uc->parser.message();
  TrunkLink* link = edgePickTrunk(*uc->shard);
  if (link == nullptr) {
    // A trunk may simply not be up *yet*: after a socket takeover the
    // adopted ring delivers live user connections before this
    // instance's freshly dialed trunks finish their handshakes. While
    // any link is still connecting, wait it out briefly instead of
    // 502ing a request the previous instance would have served.
    bool pending = false;
    for (const auto& l : uc->shard->trunkLinks) {
      pending |= l->connecting;
    }
    constexpr int kTrunkWaitMaxRetries = 50;  // × 20 ms = 1 s grace
    if (pending && !terminated_ &&
        uc->trunkWaitRetries < kTrunkWaitMaxRetries) {
      if (uc->trunkWaitStartNs == 0) {
        uc->trunkWaitStartNs = trace::nowNs();
      }
      ++uc->trunkWaitRetries;
      uc->shard->loop->runAfter(
          Duration{20},
          [this, uc] {
            if (uc->requestActive && uc->link == nullptr &&
                uc->conn->open() && !terminated_) {
              edgeDispatchUpstream(uc);
            }
          },
          "timer.trunk_wait");
      return;
    }
    bump("edge.err.no_origin");
    edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
    edgeFailUserRequest(uc, 502, "no healthy origin");
    return;
  }
  uint32_t sid = link->session->openStream();
  if (sid == 0) {
    bump("edge.err.no_origin");
    edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
    edgeFailUserRequest(uc, 502, "trunk rejected stream");
    return;
  }
  uc->link = link;
  uc->streamId = sid;
  link->httpStreams[sid] = uc;

  if (uc->trace.valid()) {
    uint64_t now = trace::nowNs();
    if (uc->trunkWaitStartNs != 0) {
      recordSpan(uc->shard->spans, uc->trace.traceId, trace::newId(),
                 uc->trace.spanId, trace::SpanKind::kEdgeTrunkWait,
                 traceInstance_, uc->trunkWaitStartNs, now,
                 static_cast<uint64_t>(uc->trunkWaitRetries));
      uc->trunkWaitStartNs = 0;
    }
    if (uc->dispatchStartNs == 0) {
      uc->dispatchStartNs = now;
    }
    if (uc->upstreamSpanId == 0) {
      // One upstream span covers the whole phase, re-dispatches
      // included (each retry adds its own kEdgeRedispatch marker).
      uc->upstreamSpanId = trace::newId();
    }
  }

  h2::HeaderList headers;
  headers.emplace_back(std::string(kHdrMethod), req.method);
  headers.emplace_back(std::string(kHdrPath), req.path);
  for (const auto& [n, v] : req.headers.all()) {
    if (n == kHdrTrace) {
      continue;  // this hop owns the header; re-added below
    }
    headers.emplace_back(n, v);
  }
  if (uc->upstreamSpanId != 0) {
    headers.emplace_back(
        std::string(kHdrTrace),
        trace::formatTraceHeader(uc->trace.traceId, uc->upstreamSpanId));
  }
  bool endNow = uc->parser.messageComplete() && uc->bodyPending.empty();
  uc->upstreamEnded = endNow;
  link->session->sendHeaders(sid, headers, endNow);

  uc->timeoutTimer = uc->shard->loop->runAfter(
      config_.requestTimeout,
      [this, uc] {
        if (uc->requestActive && !uc->responseStarted && uc->conn->open()) {
          bump("edge.err.timeout");
          edgeNoteDisruption(uc, fr::DisruptionCause::kTimeout);
          if (uc->link != nullptr) {
            if (uc->link->session) {
              uc->link->session->sendReset(uc->streamId);
            }
            uc->link->httpStreams.erase(uc->streamId);
            uc->link = nullptr;
          }
          edgeFailUserRequest(uc, 504, "origin timeout");
        }
      },
      "timer.request_timeout");
}

void Proxy::edgeOnHttpBody(const std::shared_ptr<UserHttpConn>& uc,
                           std::string_view fragment, bool last) {
  if (uc->servedLocally || uc->link == nullptr || uc->upstreamEnded) {
    return;  // locally-served or failed request: discard the body
  }
  uc->upstreamEnded = last;
  uc->link->session->sendData(uc->streamId, fragment, last);
}

void Proxy::edgeServeLocal(const std::shared_ptr<UserHttpConn>& uc,
                           const http::Response& res) {
  uc->servedLocally = true;
  uc->lastStatus = res.status;
  edgeSendResponse(uc, res);
  if (uc->parser.messageComplete()) {
    edgeFinishUserRequest(uc);
  }
  // Otherwise the request body is still streaming in; it is discarded
  // as it arrives and the request finishes once the parser completes.
}

void Proxy::edgeFailUserRequest(const std::shared_ptr<UserHttpConn>& uc,
                                int status, const std::string& why) {
  http::Response res;
  res.status = status;
  res.reason = std::string(http::defaultReason(status));
  res.body = why;
  edgeServeLocal(uc, res);
}

bool Proxy::edgeTryRedispatch(const std::shared_ptr<UserHttpConn>& uc) {
  // A trunk stream died under the request. For an idempotent request
  // that is fully sent and has seen no response bytes, retrying on
  // another trunk is invisible to the user — but only within the
  // shard's retry budget, so a dying origin can't double the load on
  // the survivors (retry-storm amplification).
  const http::Request& req = uc->parser.message();
  if (req.method != "GET" || uc->responseStarted ||
      !uc->parser.messageComplete() || !uc->conn->open() || terminated_) {
    return false;
  }
  if (edgePickTrunk(*uc->shard) == nullptr) {
    return false;  // nowhere better to go; fail like before
  }
  if (!trySpendRetryToken(*uc->shard)) {
    return false;
  }
  bump("edge.dispatch_retries");
  if (uc->trace.valid()) {
    const uint64_t now = trace::nowNs();
    recordSpan(uc->shard->spans, uc->trace.traceId, trace::newId(),
               uc->upstreamSpanId != 0 ? uc->upstreamSpanId
                                       : uc->trace.spanId,
               trace::SpanKind::kEdgeRedispatch, traceInstance_, now, now,
               static_cast<uint64_t>(uc->trunkWaitRetries));
  }
  uc->shard->loop->cancelTimer(uc->timeoutTimer);
  uc->link = nullptr;
  uc->streamId = 0;
  uc->upstreamEnded = false;
  edgeDispatchUpstream(uc);
  return true;
}

void Proxy::edgeDeliverUpstreamResponse(
    const std::shared_ptr<UserHttpConn>& uc) {
  uc->lastStatus = uc->upstreamResponse.status;
  if (!uc->cacheKey.empty() && uc->upstreamResponse.status == 200) {
    edgeCache_.put(uc->cacheKey, uc->upstreamResponse);
  }
  edgeSendResponse(uc, uc->upstreamResponse);
  edgeFinishUserRequest(uc);
}

void Proxy::edgeSendResponse(const std::shared_ptr<UserHttpConn>& uc,
                             const http::Response& res, bool headOnly) {
  const http::Response* out = &res;
  http::Response closing;
  if (draining_) {
    // Drain migration: tell the keep-alive client to reconnect; its
    // next connection lands on the updated instance (§4.1).
    closing = res;
    closing.headers.set("Connection", "close");
    out = &closing;
  }
  Buffer buf;
  if (headOnly) {
    http::serializeHead(*out, buf);
  } else {
    http::serialize(*out, buf);
  }
  uc->copyBytes += buf.size();
  uc->conn->send(buf.readable());
}

void Proxy::edgeCloseIdleUserConns(Shard& sh) {
  for (const auto& uc :
       std::set<std::shared_ptr<UserHttpConn>>(sh.userConns)) {
    // Pull bytes the kernel already holds first: a request that just
    // arrived is served here rather than cut.
    uc->conn->drainPending();
    if (uc->conn->open() && !uc->requestActive && uc->stage.empty() &&
        !uc->parser.inProgress()) {
      bump(config_.name + ".drain_idle_closed");
      uc->conn->closeAfterFlush();
    }
  }
}

void Proxy::edgeFinishUserRequest(const std::shared_ptr<UserHttpConn>& uc) {
  uc->shard->loop->cancelTimer(uc->timeoutTimer);
  if (uc->link != nullptr) {
    uc->link->httpStreams.erase(uc->streamId);
  }
  if (uc->countedInFlight) {
    uc->countedInFlight = false;
    edgeNoteRequestDone(*uc->shard);
  }
  Shard& sh = *uc->shard;
  const uint64_t endNs = trace::nowNs();
  if (uc->reqStartNs != 0 && sh.requestUs != nullptr) {
    sh.requestUs->record(
        static_cast<double>(endNs - uc->reqStartNs) / 1000.0);
  }
  if (sh.copyBytesPerReq != nullptr) {
    sh.copyBytesPerReq->record(static_cast<double>(uc->copyBytes));
  }
  if (uc->trace.valid()) {
    if (uc->dispatchStartNs != 0) {
      // The upstream phase ends with the request (covers failure paths
      // where no response ever arrived).
      recordSpan(sh.spans, uc->trace.traceId, uc->upstreamSpanId,
                 uc->trace.spanId, trace::SpanKind::kEdgeUpstream,
                 traceInstance_, uc->dispatchStartNs, endNs,
                 static_cast<uint64_t>(uc->lastStatus));
    }
    recordSpan(sh.spans, uc->trace.traceId, uc->trace.spanId,
               uc->trace.parentId,
               uc->dispatchStartNs != 0 ? trace::SpanKind::kEdgeRequest
                                        : trace::SpanKind::kEdgeLocal,
               traceInstance_, uc->reqStartNs, endNs,
               static_cast<uint64_t>(uc->lastStatus));
  }
  // A final response delivered before the request body finished (379
  // replays surface this, as do early 5xx) leaves the connection
  // unsynchronized: close it rather than parse stray body bytes as a
  // new request. A draining edge retires every connection it answers.
  bool early = !uc->parser.messageComplete();
  uc->resetRequestState();
  uc->parser.reset();
  if (early || draining_) {
    uc->conn->closeAfterFlush();
  }
}

// ------------------------------------------------------------ trunk links

Proxy::TrunkLink* Proxy::edgePickTrunk(Shard& sh) {
  // Round-robin over healthy links; links whose origin announced
  // GOAWAY take no new work (§4.1).
  auto usable = [](const TrunkLink& l) { return l.up && !l.peerDraining; };
  for (size_t i = 0; i < sh.trunkLinks.size(); ++i) {
    TrunkLink* link =
        sh.trunkLinks[(sh.trunkRoundRobin + i) % sh.trunkLinks.size()].get();
    if (usable(*link)) {
      sh.trunkRoundRobin = (sh.trunkRoundRobin + i + 1) % sh.trunkLinks.size();
      return link;
    }
  }
  // Degraded mode: accept a draining origin rather than failing.
  for (auto& l : sh.trunkLinks) {
    if (l->up) {
      return l.get();
    }
  }
  return nullptr;
}

void Proxy::edgeEnsureTrunk(Shard& sh, size_t idx) {
  // Runs on sh's loop thread (or on the primary before the shard has
  // any traffic, via the startup fan-out, which is equivalent).
  TrunkLink* link = sh.trunkLinks[idx].get();
  if (link->connecting || link->up || terminated_) {
    return;
  }
  link->connecting = true;
  Shard* shp = &sh;
  Connector::connect(
      *sh.loop, link->origin.addr,
      [this, shp, idx](TcpSocket sock, std::error_code ec) {
        if (terminated_) {
          return;
        }
        TrunkLink* link = shp->trunkLinks[idx].get();
        link->connecting = false;
        if (ec) {
          bump("edge.trunk_connect_failed");
          if (!draining_ && link->reconnectTimer == 0) {
            link->reconnectTimer = shp->loop->runAfter(
                Duration{200},
                [this, shp, idx] {
                  shp->trunkLinks[idx]->reconnectTimer = 0;
                  edgeEnsureTrunk(*shp, idx);
                },
                "timer.trunk_reconnect");
          }
          return;
        }
        fault::tagFd(sock.fd(), "trunk.edge");
        auto conn = Connection::make(*shp->loop, std::move(sock));
        link->session = h2::Session::make(conn, h2::Session::Role::kClient);
        link->up = true;
        link->peerDraining = false;

        h2::Session::Callbacks cbs;
        cbs.onHeaders = [this, link](uint32_t sid,
                                     const h2::HeaderList& headers,
                                     bool end) {
          // HTTP response headers for one of our streams.
          if (auto it = link->httpStreams.find(sid);
              it != link->httpStreams.end()) {
            auto uc = it->second.lock();
            if (!uc) {
              link->httpStreams.erase(it);
              return;
            }
            uc->responseStarted = true;
            for (const auto& [n, v] : headers) {
              if (n == kHdrStatus) {
                uc->upstreamResponse.status = std::stoi(v);
                uc->upstreamResponse.reason = std::string(
                    http::defaultReason(uc->upstreamResponse.status));
              } else {
                uc->upstreamResponse.headers.add(n, v);
              }
            }
            if (end) {
              edgeDeliverUpstreamResponse(uc);  // response with no body
              return;
            }
            // Relay mode: a big response streams straight through to the
            // client instead of re-buffering the whole body. Requires
            // the origin's Content-Length (the client needs framing) and
            // skips the cache, which wants the assembled body.
            uint64_t len = 0;
            if (auto cl = uc->upstreamResponse.headers.get("Content-Length")) {
              len = std::strtoull(std::string(*cl).c_str(), nullptr, 10);
            }
            if (config_.relayThresholdBytes > 0 &&
                len >= config_.relayThresholdBytes) {
              uc->relayActive = true;
              uc->cacheKey.clear();
              uc->lastStatus = uc->upstreamResponse.status;
              edgeSendResponse(uc, uc->upstreamResponse, /*headOnly=*/true);
              bump("edge.relay_mode_entered");
            }
            return;
          }
          // MQTT tunnel responses (open ack / DCR resume verdict).
          if (auto it = link->mqttStreams.find(sid);
              it != link->mqttStreams.end()) {
            auto tun = it->second.lock();
            if (!tun) {
              link->mqttStreams.erase(it);
              return;
            }
            int status = 0;
            for (const auto& [n, v] : headers) {
              if (n == kHdrStatus) {
                status = std::stoi(v);
              }
            }
            if (tun->resuming && sid == tun->resumeStreamId) {
              if (tun->resumeTraceId != 0) {
                recordSpan(link->shard->spans, tun->resumeTraceId,
                           tun->resumeSpanId, tun->resumeParentId,
                           trace::SpanKind::kEdgeDcrResume, traceInstance_,
                           tun->resumeStartNs, trace::nowNs(),
                           static_cast<uint64_t>(status));
              }
              if (status == 200) {
                // connect_ack (§4.2): swap to the new relay path.
                if (tun->link != nullptr) {
                  tun->link->mqttStreams.erase(tun->streamId);
                  tun->link->session->sendReset(tun->streamId);
                }
                tun->link = link;
                tun->streamId = sid;
                tun->resuming = false;
                tun->resumeLink = nullptr;
                tun->tunnelUp = true;
                bump("edge.dcr_resumed");
              } else {
                // connect_refuse: drop; the client reconnects normally.
                bump("edge.dcr_refused");
                link->mqttStreams.erase(sid);
                edgeDropMqttTunnel(
                    tun, std::make_error_code(std::errc::connection_reset));
              }
              return;
            }
            if (status != 0 && status != 200) {
              bump("edge.mqtt_tunnel_open_failed");
              edgeDropMqttTunnel(
                  tun, std::make_error_code(std::errc::connection_refused));
            }
            return;
          }
        };
        cbs.onData = [this, link](uint32_t sid, std::string_view data,
                                  bool end) {
          if (auto it = link->httpStreams.find(sid);
              it != link->httpStreams.end()) {
            auto uc = it->second.lock();
            if (!uc) {
              link->httpStreams.erase(it);
              return;
            }
            if (uc->relayActive) {
              // Headers already went out; forward each fragment without
              // re-buffering it into upstreamResponse.body.
              uc->copyBytes += data.size();
              uc->conn->send(data);
              if (end) {
                bumpHot(hot_.responsesRelayed);
                edgeFinishUserRequest(uc);
              }
              return;
            }
            uc->upstreamResponse.body.append(data);
            uc->copyBytes += data.size();
            if (end) {
              bumpHot(hot_.responsesRelayed);
              edgeDeliverUpstreamResponse(uc);
            }
            return;
          }
          if (auto it = link->mqttStreams.find(sid);
              it != link->mqttStreams.end()) {
            auto tun = it->second.lock();
            if (tun && tun->userConn->open()) {
              tun->userConn->send(data);
              bump(config_.name + ".mqtt_bytes_to_user", data.size());
            }
            if (end && tun) {
              edgeDropMqttTunnel(tun, {});
            }
            return;
          }
        };
        cbs.onReset = [this, link](uint32_t sid) {
          if (auto it = link->httpStreams.find(sid);
              it != link->httpStreams.end()) {
            auto uc = it->second.lock();
            link->httpStreams.erase(it);
            if (uc && uc->requestActive) {
              uc->link = nullptr;
              if (uc->relayActive) {
                // Part of the body already reached the client under a
                // Content-Length it can never complete; the only honest
                // signal left is a reset.
                bump("edge.err.stream_abort");
                edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
                uc->conn->close(
                    std::make_error_code(std::errc::connection_reset));
                return;
              }
              if (edgeTryRedispatch(uc)) {
                return;
              }
              bump("edge.err.stream_abort");
              edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
              edgeFailUserRequest(uc, 502, "origin stream reset");
            }
            return;
          }
          if (auto it = link->mqttStreams.find(sid);
              it != link->mqttStreams.end()) {
            auto tun = it->second.lock();
            link->mqttStreams.erase(it);
            if (tun && !tun->resuming) {
              edgeDropMqttTunnel(
                  tun, std::make_error_code(std::errc::connection_reset));
            }
          }
        };
        cbs.onGoaway = [this, link](const h2::GoawayInfo&) {
          link->peerDraining = true;
          bump("edge.trunk_goaway_received");
        };
        cbs.onControl = [this, link](const h2::Frame& f) {
          edgeOnTrunkControl(link, f);
        };
        cbs.onClose = [this, link](std::error_code) {
          edgeOnTrunkClosed(link);
        };
        link->session->setCallbacks(std::move(cbs));
        link->session->start();
        bump("edge.trunk_established");
      });
}

void Proxy::edgeOnTrunkControl(TrunkLink* link, const h2::Frame& frame) {
  if (frame.type == h2::FrameType::kReconnectSolicitation &&
      config_.dcrEnabled) {
    bump("edge.dcr_solicitation_received");
    // The draining origin's drain trace rides the frame payload so the
    // resume hops recorded here join it.
    uint64_t solTrace = 0;
    uint64_t solSpan = 0;
    if (!frame.payload.empty()) {
      trace::parseTraceHeader(frame.payload, solTrace, solSpan);
    }
    edgeResumeMqttTunnels(link, solTrace, solSpan);
  }
}

void Proxy::edgeOnTrunkClosed(TrunkLink* link) {
  link->up = false;
  link->connecting = false;
  link->session = nullptr;
  bump("edge.trunk_closed");

  // In-flight HTTP requests on this trunk abort.
  auto httpStreams = std::move(link->httpStreams);
  link->httpStreams.clear();
  for (auto& [sid, weakUc] : httpStreams) {
    auto uc = weakUc.lock();
    if (uc && uc->requestActive) {
      uc->link = nullptr;
      if (uc->relayActive) {
        bump("edge.err.stream_abort");
        edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
        uc->conn->close(std::make_error_code(std::errc::connection_reset));
        continue;  // partial streamed body; see onReset
      }
      if (edgeTryRedispatch(uc)) {
        continue;
      }
      bump("edge.err.stream_abort");
      edgeNoteDisruption(uc, fr::DisruptionCause::kTrunkAbort);
      edgeFailUserRequest(uc, 502, "trunk closed");
    }
  }
  // MQTT tunnels on this trunk die (unless mid-resume to another link).
  auto mqttStreams = std::move(link->mqttStreams);
  link->mqttStreams.clear();
  for (auto& [sid, weakTun] : mqttStreams) {
    auto tun = weakTun.lock();
    if (!tun) {
      continue;
    }
    if (tun->resuming && tun->resumeLink != nullptr &&
        tun->resumeLink != link) {
      // Resume still in flight elsewhere; detach from the dead trunk.
      if (tun->link == link) {
        tun->link = nullptr;
        tun->tunnelUp = false;
      }
      continue;
    }
    edgeDropMqttTunnel(tun,
                       std::make_error_code(std::errc::connection_reset));
  }

  if (!draining_ && !terminated_ && link->reconnectTimer == 0) {
    size_t idx = link->idx;
    Shard* shp = link->shard;
    link->reconnectTimer = shp->loop->runAfter(
        Duration{200},
        [this, shp, idx] {
          shp->trunkLinks[idx]->reconnectTimer = 0;
          edgeEnsureTrunk(*shp, idx);
        },
        "timer.trunk_reconnect");
  }
}

// -------------------------------------------------------------- MQTT edge

void Proxy::edgeOnMqttAccept(TcpSocket sock) {
  if (terminated_) {
    return;
  }
  bump(config_.name + ".mqtt_conn_accepted");
  fault::tagFd(sock.fd(), "edge.mqtt");
  static const uint32_t kAcceptTag = trace::internInstance("accept.mqtt");
  fr::recordEvent(shards_.empty() ? nullptr : shards_.front()->events,
                  fr::EventKind::kAccept, traceInstance_, 0, 0, kAcceptTag);
  auto tun = std::make_shared<MqttTunnel>();
  tun->userConn = Connection::make(loop_, std::move(sock));
  mqttTunnels_.insert(tun);

  tun->userConn->setDataCallback([this, tun](Buffer& in) {
    tun->pendingToOrigin.append(in.readable());
    in.clear();
    if (tun->userId.empty()) {
      // Peek at the CONNECT packet for the user-id (the edge needs it
      // for DCR routing; it otherwise relays bytes opaquely).
      Buffer copy;
      copy.append(tun->pendingToOrigin.readable());
      bool malformed = false;
      auto pkt = mqtt::decode(copy, malformed);
      if (malformed ||
          (pkt && pkt->type != mqtt::PacketType::kConnect)) {
        edgeDropMqttTunnel(tun,
                           std::make_error_code(std::errc::protocol_error));
        return;
      }
      if (!pkt) {
        return;  // CONNECT not fully buffered yet
      }
      tun->userId = pkt->clientId;
      edgeOpenMqttTunnel(tun, /*resume=*/false);
    }
    if (tun->tunnelUp && tun->link != nullptr && tun->link->session &&
        !tun->pendingToOrigin.empty()) {
      tun->link->session->sendData(
          tun->streamId, tun->pendingToOrigin.view(), false);
      tun->pendingToOrigin.clear();
    }
  });
  tun->userConn->setCloseCallback([this, tun](std::error_code) {
    if (tun->link != nullptr) {
      if (tun->link->session) {
        tun->link->session->sendReset(tun->streamId);
      }
      tun->link->mqttStreams.erase(tun->streamId);
      tun->link = nullptr;
    }
    if (tun->resumeLink != nullptr) {
      if (tun->resumeLink->session) {
        tun->resumeLink->session->sendReset(tun->resumeStreamId);
      }
      tun->resumeLink->mqttStreams.erase(tun->resumeStreamId);
      tun->resumeLink = nullptr;
    }
    mqttTunnels_.erase(tun);
  });
  tun->userConn->start();
}

void Proxy::edgeOpenMqttTunnel(const std::shared_ptr<MqttTunnel>& tun,
                               bool resume) {
  // MQTT tunnels are pinned to shard 0 (the primary loop), so they
  // only ever ride shard 0's trunk links.
  TrunkLink* link = edgePickTrunk(*shards_.front());
  if (link == nullptr) {
    bump("edge.err.no_origin");
    edgeDropMqttTunnel(tun,
                       std::make_error_code(std::errc::network_unreachable));
    return;
  }
  uint32_t sid = link->session->openStream();
  if (sid == 0) {
    edgeDropMqttTunnel(tun,
                       std::make_error_code(std::errc::network_unreachable));
    return;
  }
  h2::HeaderList headers;
  headers.emplace_back(std::string(kHdrTunnel), "mqtt");
  headers.emplace_back(std::string(kHdrUserId), tun->userId);
  if (resume) {
    headers.emplace_back(std::string(kHdrResume), "1");
    if (trace::tracingEnabled()) {
      tun->resumeTraceId = trace::newId();
      tun->resumeParentId = 0;
      tun->resumeSpanId = trace::newId();
      tun->resumeStartNs = trace::nowNs();
      headers.emplace_back(std::string(kHdrTrace),
                           trace::formatTraceHeader(tun->resumeTraceId,
                                                    tun->resumeSpanId));
    }
  }
  link->mqttStreams[sid] = tun;
  link->session->sendHeaders(sid, headers, false);
  if (resume) {
    tun->resuming = true;
    tun->resumeLink = link;
    tun->resumeStreamId = sid;
    bump("edge.dcr_reconnect_sent");  // the paper's re_connect message
  } else {
    tun->link = link;
    tun->streamId = sid;
    tun->tunnelUp = true;  // origin buffers until its broker leg is up
    if (!tun->pendingToOrigin.empty()) {
      link->session->sendData(sid, tun->pendingToOrigin.view(), false);
      tun->pendingToOrigin.clear();
    }
  }
}

void Proxy::edgeResumeMqttTunnels(TrunkLink* fromLink, uint64_t solTraceId,
                                  uint64_t solSpanId) {
  // §4.2 workflow step B: for every tunnel relayed via the restarting
  // origin, ask a *different healthy* origin to take over the relay.
  // Tunnels are pinned to shard 0, so on any other shard this loop is
  // empty and the solicitation is a no-op.
  Shard& sh = *fromLink->shard;

  std::vector<std::shared_ptr<MqttTunnel>> affected;
  for (auto& [sid, weakTun] : fromLink->mqttStreams) {
    if (auto tun = weakTun.lock(); tun && !tun->resuming) {
      affected.push_back(tun);
    }
  }
  for (const auto& tun : affected) {
    TrunkLink* other = nullptr;
    for (size_t i = 0; i < sh.trunkLinks.size(); ++i) {
      TrunkLink* cand =
          sh.trunkLinks[(sh.trunkRoundRobin + i) % sh.trunkLinks.size()].get();
      if (cand != fromLink && cand->up && !cand->peerDraining) {
        other = cand;
        sh.trunkRoundRobin = (sh.trunkRoundRobin + i + 1) % sh.trunkLinks.size();
        break;
      }
    }
    if (other == nullptr) {
      bump("edge.dcr_no_alternative");
      continue;  // tunnel rides out the drain and dies with the origin
    }
    uint32_t sid = other->session->openStream();
    if (sid == 0) {
      continue;
    }
    h2::HeaderList headers;
    headers.emplace_back(std::string(kHdrTunnel), "mqtt");
    headers.emplace_back(std::string(kHdrUserId), tun->userId);
    headers.emplace_back(std::string(kHdrResume), "1");
    if (trace::tracingEnabled()) {
      // Join the drain trace from the solicitation (fresh trace when
      // the frame carried none — an old peer, or a test poke).
      tun->resumeTraceId = solTraceId != 0 ? solTraceId : trace::newId();
      tun->resumeParentId = solSpanId;
      tun->resumeSpanId = trace::newId();
      tun->resumeStartNs = trace::nowNs();
      headers.emplace_back(std::string(kHdrTrace),
                           trace::formatTraceHeader(tun->resumeTraceId,
                                                    tun->resumeSpanId));
    }
    other->mqttStreams[sid] = tun;
    other->session->sendHeaders(sid, headers, false);
    tun->resuming = true;
    tun->resumeLink = other;
    tun->resumeStreamId = sid;
    bump("edge.dcr_reconnect_sent");
  }
}

void Proxy::edgeDropMqttTunnel(const std::shared_ptr<MqttTunnel>& tun,
                               std::error_code why) {
  // An errored drop severs a live subscriber: attribute it. Protocol
  // errors are the client's own malformed CONNECT, not a disruption
  // we inflicted.
  if (why && why != std::make_error_code(std::errc::protocol_error) &&
      !tun->disruptionNoted) {
    tun->disruptionNoted = true;
    const bool sabotaged =
        tun->userConn && tun->userConn->faultInjections() > 0;
    noteDisruption(nullptr,
                   sabotaged ? fr::DisruptionCause::kFaultInjected
                             : fr::DisruptionCause::kTrunkAbort,
                   tun->resumeTraceId);
  }
  if (tun->link != nullptr) {
    tun->link->mqttStreams.erase(tun->streamId);
    if (tun->link->session) {  // null once the trunk itself died
      tun->link->session->sendReset(tun->streamId);
    }
    tun->link = nullptr;
  }
  if (tun->resumeLink != nullptr) {
    tun->resumeLink->mqttStreams.erase(tun->resumeStreamId);
    if (tun->resumeLink->session) {
      tun->resumeLink->session->sendReset(tun->resumeStreamId);
    }
    tun->resumeLink = nullptr;
  }
  if (tun->userConn && tun->userConn->open()) {
    tun->userConn->close(why);
  }
  mqttTunnels_.erase(tun);
}

}  // namespace zdr::proxygen
