#include "l4lb/health.h"

#include "http/codec.h"

namespace zdr::l4lb {

HealthChecker::HealthChecker(EventLoop& loop,
                             std::vector<BackendTarget> targets, Options opts,
                             ChangeCallback onChange, Counter* transitions)
    : loop_(loop),
      opts_(opts),
      onChange_(std::move(onChange)),
      transitions_(transitions),
      alive_(std::make_shared<bool>(true)) {
  states_.reserve(targets.size());
  for (auto& t : targets) {
    states_.push_back(State{std::move(t), false, 0, 0, false});
  }
  timer_ = loop_.runEvery(opts_.interval, [this] { probeAll(); });
  probeAll();
}

HealthChecker::~HealthChecker() {
  *alive_ = false;
  loop_.cancelTimer(timer_);
  for (const auto& conn : std::set<ConnectionPtr>(probes_)) {
    conn->close({});
  }
  probes_.clear();
}

bool HealthChecker::isHealthy(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : states_) {
    if (s.target.name == name) {
      return s.healthy;
    }
  }
  return false;
}

std::vector<std::string> HealthChecker::healthyNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& s : states_) {
    if (s.healthy) {
      out.push_back(s.target.name);
    }
  }
  return out;
}

std::vector<BackendTarget> HealthChecker::healthyTargets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BackendTarget> out;
  for (const auto& s : states_) {
    if (s.healthy) {
      out.push_back(s.target);
    }
  }
  return out;
}

size_t HealthChecker::healthyCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& s : states_) {
    if (s.healthy) {
      ++n;
    }
  }
  return n;
}

void HealthChecker::assumeAllHealthy() {
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& s : states_) {
      changed |= !s.healthy;
      s.healthy = true;
      s.consecutiveFails = 0;
    }
  }
  if (changed && onChange_) {
    onChange_();
  }
}

void HealthChecker::probeAll() {
  std::vector<size_t> due;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < states_.size(); ++i) {
      if (!states_[i].probeInFlight) {
        due.push_back(i);
      }
    }
  }
  for (size_t i : due) {
    probeOne(i);
  }
}

void HealthChecker::probeOne(size_t idx) {
  SocketAddr addr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    states_[idx].probeInFlight = true;
    addr = states_[idx].target.addr;
  }
  auto alive = alive_;
  auto path = opts_.path;
  auto timeout = opts_.probeTimeout;
  Connector::connect(
      loop_, addr,
      [this, alive, idx, path, timeout](TcpSocket sock, std::error_code ec) {
        if (!*alive) {
          return;
        }
        if (ec || path.empty()) {
          onProbeResult(idx, !ec);
          return;  // a connect-only probe closes `sock` here
        }
        // Send the probe request and await a 200.
        auto conn = Connection::make(loop_, std::move(sock));
        if (*alive) {
          probes_.insert(conn);
        }
        auto parser = std::make_shared<http::ResponseParser>();
        auto done = std::make_shared<bool>(false);
        // The timeout timer would otherwise pin `conn` (through its own
        // copy of `finish`) until it expires, long after the verdict:
        // finish cancels it on the early-completion paths.
        auto timerId = std::make_shared<EventLoop::TimerId>(0);
        auto finish = [this, alive, idx, conn, done, timerId](bool pass) {
          if (*done) {
            return;
          }
          *done = true;
          if (*timerId != 0) {
            loop_.cancelTimer(*timerId);
          }
          conn->close({});
          if (*alive) {
            probes_.erase(conn);
            onProbeResult(idx, pass);
          }
        };
        conn->setDataCallback([parser, finish](Buffer& in) {
          auto st = parser->feed(in);
          if (st == http::ParseStatus::kError) {
            finish(false);
          } else if (parser->messageComplete()) {
            finish(parser->message().status == 200);
          }
        });
        conn->setCloseCallback(
            [finish](std::error_code) { finish(false); });
        // Arm the timeout before start(): if the transport dies inside
        // start()/send(), finish already has a real id to cancel.
        *timerId = loop_.runAfter(timeout, [finish] { finish(false); });
        conn->start();
        http::Request req;
        req.method = "GET";
        req.path = path;
        req.headers.set("Host", "healthcheck");
        Buffer out;
        http::serialize(req, out);
        conn->send(out.readable());
      },
      timeout);
}

void HealthChecker::onProbeResult(size_t idx, bool pass) {
  bool transitioned = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& s = states_[idx];
    s.probeInFlight = false;
    bool was = s.healthy;
    if (pass) {
      s.consecutiveFails = 0;
      ++s.consecutivePasses;
      if (!s.healthy && s.consecutivePasses >= opts_.riseThreshold) {
        s.healthy = true;
      }
    } else {
      s.consecutivePasses = 0;
      ++s.consecutiveFails;
      if (s.healthy && s.consecutiveFails >= opts_.failThreshold) {
        s.healthy = false;
      }
    }
    transitioned = was != s.healthy;
  }
  if (transitioned) {
    if (transitions_ != nullptr) {
      transitions_->add();
    }
    if (onChange_) {
      onChange_();
    }
  }
}

}  // namespace zdr::l4lb
