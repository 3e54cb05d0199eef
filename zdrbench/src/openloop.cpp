#include "openloop.h"

#include <pthread.h>
#include <time.h>

#include <chrono>
#include <condition_variable>
#include <stdexcept>
#include <thread>

#include "metrics/trace.h"

namespace zdrbench {

using zdr::trace::nowNs;

struct OpenLoop::HttpConn {
  std::shared_ptr<zdr::http::Client> client;
  std::deque<size_t> queue;
  bool busy = false;
};

struct OpenLoop::Stream {
  enum class Type : uint8_t { kHttp, kMqtt, kQuic };
  Type type = Type::kHttp;
  zdr::SocketAddr entry;
  // HTTP: fixed after addHttp (callbacks hold HttpConn pointers).
  std::vector<HttpConn> conns;
  // MQTT: publishes in flight, oldest first.
  std::shared_ptr<zdr::mqtt::Client> mqtt;
  std::string clientId;
  std::string topic;
  bool connected = false;
  bool probeSeen = false;
  std::deque<size_t> inflight;
  // quicish
  std::unique_ptr<zdr::quicish::ClientFlow> flow;
  uint64_t quicSent = 0;
};

OpenLoop::OpenLoop(zdr::MetricsRegistry* reg)
    : // The release controller judges client-visible health from these
      // ("bench" is the client prefix its SLO signals name).
      okCounter_(&reg->counter("bench.ok")),
      errHttp_(&reg->counter("bench.err_http")),
      errTimeout_(&reg->counter("bench.err_timeout")),
      latencyHist_(&reg->histogram("bench.latency_ms")),
      loop_(std::make_unique<zdr::EventLoop>()) {
  driver_ = std::thread([this] { drive(); });
}

OpenLoop::~OpenLoop() {
  close();
  stop_ = true;
  loop_->runInLoop([] {});  // wake an idle poll
  driver_.join();
}

void OpenLoop::runSync(const std::function<void()>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  loop_->runInLoop([&] {
    fn();
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

double OpenLoop::driverCpuSeconds() const {
  clockid_t cid;
  timespec ts{};
  if (::pthread_getcpuclockid(const_cast<std::thread&>(driver_).native_handle(),
                              &cid) != 0 ||
      ::clock_gettime(cid, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// The generator's only thread. While a phase runs it issues every op
// whose intended time has come, then polls the loop: without blocking
// when the next op is due within 1.5 ms (so no sleep can overshoot a
// send time), else blocking for whole milliseconds short of it. I/O
// completions wake a blocked poll at once.
void OpenLoop::drive() {
  const uint64_t sampleNs = kBacklogSampleMs * 1'000'000ULL;
  while (!stop_.load()) {
    if (ops_ == nullptr) {
      loop_->poll(zdr::Duration{1});
      continue;
    }
    std::vector<Op>& ops = *ops_;
    const uint64_t now = nowNs();
    while (next_ < ops.size() && ops[next_].intendedNs <= now) {
      issue(next_++);
    }
    if (now >= nextSampleNs_) {
      double b = static_cast<double>(next_) -
                 static_cast<double>(finished_.load());
      phase_.backlog.push_back(b);
      phase_.backlogMax = std::max(phase_.backlogMax, b);
      nextSampleNs_ += sampleNs;
    }
    if (next_ == ops.size() &&
        (finished_.load() == ops.size() || now >= deadlineNs_)) {
      endPhase();
      continue;
    }
    uint64_t due = std::min(nextSampleNs_, next_ < ops.size()
                                               ? ops[next_].intendedNs
                                               : deadlineNs_);
    uint64_t wait = due > now ? due - now : 0;
    int ms = wait > 1'500'000 ? static_cast<int>((wait - 500'000) / 1'000'000)
                              : 0;
    loop_->poll(zdr::Duration{ms});
  }
}

void OpenLoop::endPhase() {
  // A publish not back by the drain deadline was not delivered. HTTP
  // ops still queued or in flight stay pending: their client timeouts
  // should have resolved them, so the caller's accounting check
  // reports them as a harness fault.
  for (auto& s : streams_) {
    for (auto& c : s->conns) {
      c.queue.clear();
    }
    for (size_t idx : s->inflight) {
      finish(idx, false);
    }
    s->inflight.clear();
  }
  phase_.finished = finished_.load();
  phase_.failed = failed_.load();
  ops_ = nullptr;
  std::lock_guard<std::mutex> lock(phaseMu_);
  phaseDone_ = true;
  phaseCv_.notify_all();
}

PhaseResult OpenLoop::run(std::vector<Op>& ops, int drainMs) {
  {
    std::lock_guard<std::mutex> lock(phaseMu_);
    phaseDone_ = false;
  }
  runSync([&] {
    phase_ = PhaseResult{};
    phase_.offered = ops.size();
    finished_ = 0;
    failed_ = 0;
    ++generation_;
    const uint64_t first = nowNs() + 2'000'000;
    for (auto& op : ops) {
      op.intendedNs += first;
    }
    const uint64_t last = ops.empty() ? first : ops.back().intendedNs;
    deadlineNs_ = last + static_cast<uint64_t>(drainMs) * 1'000'000;
    nextSampleNs_ = first;
    next_ = 0;
    ops_ = &ops;
  });
  std::unique_lock<std::mutex> lock(phaseMu_);
  phaseCv_.wait(lock, [this] { return phaseDone_; });
  return phase_;
}

void OpenLoop::closeStreams() {
  runSync([this] {
    for (auto& s : streams_) {
      for (auto& c : s->conns) {
        c.client->close();
      }
      if (s->mqtt) {
        s->mqtt->setCloseCallback(nullptr);
        s->mqtt->setPublishCallback(nullptr);
        s->mqtt->abort();
      }
      s->flow.reset();
    }
    streams_.clear();
    ++streamsEpoch_;
  });
}

void OpenLoop::close() {
  if (closed_.exchange(true)) {
    return;
  }
  closeStreams();
}

uint32_t OpenLoop::addHttp(const zdr::SocketAddr& entry, size_t connections) {
  uint32_t idx = 0;
  runSync([&] {
    auto s = std::make_unique<Stream>();
    s->type = Stream::Type::kHttp;
    s->entry = entry;
    s->conns.resize(connections);
    for (auto& c : s->conns) {
      c.client = zdr::http::Client::make(*loop_, entry);
    }
    idx = static_cast<uint32_t>(streams_.size());
    streams_.push_back(std::move(s));
  });
  return idx;
}

void OpenLoop::mqttConnect(Stream& s) {
  s.connected = false;
  s.mqtt = zdr::mqtt::Client::make(*loop_, s.clientId);
  Stream* sp = &s;
  s.mqtt->setPublishCallback(
      [this, sp](const std::string&, const std::string& payload) {
        mqttReceived(*sp, payload);
      });
  s.mqtt->setCloseCallback([this, sp](std::error_code) {
    if (closed_) {
      return;
    }
    sp->connected = false;
    ++mqttDrops_;
    // Publishes still in flight on the dead transport will not come
    // back: QoS 0 has no redelivery.
    while (!sp->inflight.empty()) {
      finish(sp->inflight.front(), false);
      sp->inflight.pop_front();
    }
    // Re-dial as a device would; the short pause keeps a refused dial
    // from spinning while an entry is down. The stream may be gone by
    // then (closeStreams bumps the epoch).
    const uint64_t epoch = streamsEpoch_;
    loop_->runAfter(zdr::Duration{20}, [this, sp, epoch] {
      if (!closed_ && epoch == streamsEpoch_) {
        mqttConnect(*sp);
      }
    });
  });
  s.mqtt->connect(s.entry, true, [sp](bool, uint8_t rc) {
    if (rc == 0) {
      sp->mqtt->subscribe({sp->topic});
      sp->connected = true;
    }
  });
}

uint32_t OpenLoop::addMqtt(const zdr::SocketAddr& entry,
                           const std::string& clientId) {
  uint32_t idx = 0;
  Stream* sp = nullptr;
  runSync([&] {
    auto s = std::make_unique<Stream>();
    s->type = Stream::Type::kMqtt;
    s->entry = entry;
    s->clientId = clientId;
    s->topic = "bench/" + clientId;
    sp = s.get();
    idx = static_cast<uint32_t>(streams_.size());
    streams_.push_back(std::move(s));
    mqttConnect(*sp);
  });
  // The subscription is live once a self-publish comes back.
  for (int i = 0; i < 200; ++i) {
    bool seen = false;
    runSync([&] {
      seen = sp->probeSeen;
      if (!seen && sp->connected) {
        sp->mqtt->publish(sp->topic, "probe");
      }
    });
    if (seen) {
      return idx;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  throw std::runtime_error("mqtt session " + clientId + " never came up");
}

uint32_t OpenLoop::addQuic(const zdr::SocketAddr& vip, uint64_t connId) {
  uint32_t idx = 0;
  runSync([&] {
    auto s = std::make_unique<Stream>();
    s->type = Stream::Type::kQuic;
    s->flow = std::make_unique<zdr::quicish::ClientFlow>(*loop_, vip, connId);
    s->flow->sendInitial();
    s->quicSent = 1;
    idx = static_cast<uint32_t>(streams_.size());
    streams_.push_back(std::move(s));
  });
  return idx;
}

void OpenLoop::finish(size_t idx, bool ok) {
  Op& op = (*ops_)[idx];
  if (op.state != OpState::kPending) {
    return;
  }
  op.doneNs = nowNs();
  op.state = ok ? OpState::kOk : OpState::kFailed;
  if (ok) {
    okCounter_->add();
    if (op.kind != OpKind::kQuic) {
      latencyHist_->record(latencyMs(op.intendedNs, op.doneNs));
    }
  } else {
    ++failed_;
  }
  finished_.fetch_add(1, std::memory_order_release);
}

void OpenLoop::mqttReceived(Stream& s, const std::string& payload) {
  if (payload == "probe") {
    s.probeSeen = true;
    return;
  }
  if (ops_ == nullptr) {
    ++violations_.mqttOrder;  // delivered after its run settled
    return;
  }
  uint64_t id = std::strtoull(payload.c_str(), nullptr, 10);
  // Anything older than `id` still in flight was skipped: with ordered
  // delivery on one session it can only arrive late (a violation) or
  // never (a failed publish).
  while (!s.inflight.empty() && (*ops_)[s.inflight.front()].id < id) {
    finish(s.inflight.front(), false);
    s.inflight.pop_front();
  }
  if (s.inflight.empty() || (*ops_)[s.inflight.front()].id != id) {
    ++violations_.mqttOrder;  // duplicate or out of order
    return;
  }
  finish(s.inflight.front(), true);
  s.inflight.pop_front();
}

zdr::http::Request requestFor(const Op& op) {
  zdr::http::Request req;
  switch (op.kind) {
    case OpKind::kCached:
      req.path = "/cached/" + std::to_string(op.arg);
      return req;
    case OpKind::kPost:
    case OpKind::kPacedPost:
      req.path = "/upload/" + std::to_string(op.id);
      break;
    default:
      req.path = "/api/obj/" + std::to_string(op.id);
      return req;
  }
  req.method = "POST";
  std::string body(op.arg, static_cast<char>('a' + op.id % 26));
  if (op.id % 2 == 0) {
    zdr::Buffer framed;
    for (size_t off = 0; off < body.size(); off += 16384) {
      zdr::http::appendChunk(framed,
                             std::string_view(body).substr(off, 16384));
    }
    zdr::http::appendFinalChunk(framed);
    req.headers.set("Transfer-Encoding", "chunked");
    req.body = std::string(framed.view());
  } else {
    req.body = std::move(body);
  }
  return req;
}

void OpenLoop::sendHttp(Stream& s, HttpConn& c, size_t idx) {
  Op& op = (*ops_)[idx];
  c.busy = true;
  op.sentNs = nowNs();
  const uint64_t gen = generation_;
  Stream* sp = &s;
  HttpConn* cp = &c;
  zdr::http::Request req;
  if (op.kind == OpKind::kPacedPost) {
    req.path = "/upload/" + std::to_string(op.id);
  } else {
    req = requestFor(op);
  }
  auto cb = [this, sp, cp, idx, gen, path = req.path](
                zdr::http::Client::Result r) {
    cp->busy = false;
    if (ops_ == nullptr || gen != generation_) {
      return;  // the run this op belonged to has settled
    }
    bool ok = false;
    if (r.timedOut || r.transportError) {
      errTimeout_->add();
    } else if (r.response.status == 379) {
      ++violations_.status379;
      errHttp_->add();
    } else if (r.response.status >= 500) {
      errHttp_->add();
    } else if (r.response.status == 200 && r.response.body == "ok:" + path) {
      ok = true;
    } else {
      ++violations_.wrongEcho;
      errHttp_->add();
    }
    finish(idx, ok);
    if (!cp->queue.empty()) {
      size_t next = cp->queue.front();
      cp->queue.pop_front();
      sendHttp(*sp, *cp, next);
    }
  };
  if (op.kind == OpKind::kPacedPost) {
    // arg chunks of 4 KiB, one per 50 ms: the upload straddles
    // arg × 50 ms of wall time (and with it any restart in that span).
    c.client->pacedPost(req.path, op.arg, 4096, zdr::Duration{50},
                        std::move(cb), zdr::Duration{10000});
    return;
  }
  if (tracing_) {
    op.traceId = zdr::trace::newId();
    op.spanId = zdr::trace::newId();
    req.headers.set(zdr::trace::kTraceHeaderName,
                    zdr::trace::formatTraceHeader(op.traceId, op.spanId));
  }
  c.client->request(std::move(req), std::move(cb), zdr::Duration{3000});
}

void OpenLoop::issue(size_t idx) {
  Op& op = (*ops_)[idx];
  op.dispatchNs = nowNs();
  Stream& s = *streams_.at(op.stream);
  switch (s.type) {
    case Stream::Type::kHttp: {
      HttpConn* best = &s.conns.front();
      for (auto& c : s.conns) {
        if (c.queue.size() + (c.busy ? 1 : 0) <
            best->queue.size() + (best->busy ? 1 : 0)) {
          best = &c;
        }
      }
      if (best->busy) {
        best->queue.push_back(idx);
      } else {
        sendHttp(s, *best, idx);
      }
      break;
    }
    case Stream::Type::kMqtt:
      op.sentNs = op.dispatchNs;
      if (!s.connected) {
        finish(idx, false);  // no session to publish on
        break;
      }
      s.inflight.push_back(idx);
      s.mqtt->publish(s.topic, std::to_string(op.id));
      break;
    case Stream::Type::kQuic:
      op.sentNs = op.dispatchNs;
      s.flow->sendData(64);
      ++s.quicSent;
      finish(idx, true);
      break;
  }
}

size_t OpenLoop::settleUndelivered() {
  size_t failed = 0;
  runSync([&] {
    for (auto& s : streams_) {
      if (s->flow) {
        uint64_t acks = s->flow->acks();
        if (acks > s->quicSent) {
          violations_.quicExtraAcks += acks - s->quicSent;
        } else {
          failed += s->quicSent - acks;
        }
        failed += s->flow->resets();
      }
    }
  });
  return failed;
}

Violations OpenLoop::violations() {
  Violations v;
  runSync([&] { v = violations_; });
  return v;
}

void OpenLoop::quicCounts(uint64_t& sent, uint64_t& acks, uint64_t& resets) {
  sent = acks = resets = 0;
  runSync([&] {
    for (auto& s : streams_) {
      if (s->flow) {
        sent += s->quicSent;
        acks += s->flow->acks();
        resets += s->flow->resets();
      }
    }
  });
}

bool OpenLoop::fetch(zdr::EventLoop& loop, const zdr::SocketAddr& entry,
                     const std::string& path, std::string& body,
                     int timeoutMs) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  std::shared_ptr<zdr::http::Client> client;
  loop.runInLoop([&] {
    client = zdr::http::Client::make(loop, entry);
    zdr::http::Request req;
    req.path = path;
    client->request(
        std::move(req),
        [&](zdr::http::Client::Result r) {
          std::lock_guard<std::mutex> lock(mu);
          ok = r.ok && r.response.status == 200;
          body = std::move(r.response.body);
          done = true;
          cv.notify_all();
        },
        zdr::Duration{timeoutMs});
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  std::mutex closeMu;
  std::condition_variable closeCv;
  bool closed = false;
  loop.runInLoop([&] {
    client->close();
    client.reset();
    std::lock_guard<std::mutex> lock(closeMu);
    closed = true;
    closeCv.notify_all();
  });
  std::unique_lock<std::mutex> lock(closeMu);
  closeCv.wait(lock, [&] { return closed; });
  return ok;
}

}  // namespace zdrbench
