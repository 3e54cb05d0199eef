#include "core/hosts.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "metrics/trace_export.h"
#include "takeover/takeover.h"

namespace zdr::core {

namespace {

void sleepMs(long ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string takeoverPathFor(const std::string& hostName) {
  return "/tmp/zdr_takeover_" + hostName + "_" +
         std::to_string(::getpid()) + ".sock";
}

// When ZDR_TRACE_ARCHIVE_DIR is set, archive a flight-recorder capture
// of the whole restart window (spans, events, release timeline) as
// <dir>/<host>_trace.json — the handoff-dir analog of a production
// host shipping its black box off-machine before the old instance
// exits. Failures are silent by design: archival must never be able to
// turn a clean release into a failed one.
void archiveTraceCapture(MetricsRegistry* metrics, const std::string& host) {
  const char* dir = std::getenv("ZDR_TRACE_ARCHIVE_DIR");
  if (dir == nullptr || *dir == '\0' || metrics == nullptr) {
    return;
  }
  fr::TraceCaptureOptions opts;
  opts.instance = host;
  std::ofstream out(std::string(dir) + "/" + host + "_trace.json");
  if (out) {
    out << fr::renderTraceCapture(*metrics, opts);
    metrics->counter(host + ".recorder.archived").add();
  }
}

}  // namespace

// ------------------------------------------------------------- ProxyHost

ProxyHost::ProxyHost(std::string name, proxygen::Proxy::Config config,
                     MetricsRegistry* metrics, Options opts)
    : name_(std::move(name)),
      config_(std::move(config)),
      metrics_(metrics),
      opts_(opts),
      thread_(name_) {
  config_.name = name_;
  if (config_.takeoverPath.empty()) {
    config_.takeoverPath = takeoverPathFor(name_);
  }
  thread_.runSync([this] {
    active_ = std::make_unique<proxygen::Proxy>(thread_.loop(), config_,
                                                metrics_);
    // Pin kernel-assigned ports so every future instance binds (or
    // adopts) the same addresses.
    httpVip_ = active_->httpVip();
    mqttVip_ = active_->mqttVip();
    quicVip_ = active_->quicVip();
    trunkAddr_ = active_->trunkAddr();
    config_.httpVip = httpVip_;
    config_.mqttVip = mqttVip_;
    config_.quicVip = quicVip_;
    config_.trunkAddr = trunkAddr_;
  });
}

ProxyHost::~ProxyHost() {
  joinRestartThread();
  thread_.runSync([this] {
    draining_.reset();
    active_.reset();
  });
}

void ProxyHost::joinRestartThread() {
  if (restartThread_.joinable()) {
    restartThread_.join();
  }
}

void ProxyHost::waitRestart() {
  while (restartInProgress_.load(std::memory_order_acquire)) {
    sleepMs(5);
  }
  joinRestartThread();
}

void ProxyHost::withActiveProxy(
    const std::function<void(proxygen::Proxy*)>& fn) {
  thread_.runSync([this, &fn] {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(active_.get());
  });
}

void ProxyHost::updateConfig(
    const std::function<void(proxygen::Proxy::Config&)>& fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  fn(config_);
}

double ProxyHost::hostCpuSeconds() {
  double cpu = 0;
  thread_.runSync([&cpu] { cpu = threadCpuSeconds(); });
  return cpu;
}

bool ProxyHost::serving() {
  bool ok = false;
  thread_.runSync([this, &ok] {
    std::lock_guard<std::mutex> lock(mutex_);
    ok = active_ != nullptr && !active_->terminated();
  });
  return ok;
}

void ProxyHost::beginRestart(release::Strategy strategy) {
  bool expected = false;
  if (!restartInProgress_.compare_exchange_strong(expected, true)) {
    return;  // restart already running
  }
  joinRestartThread();
  restartThread_ = std::thread([this, strategy] {
    if (strategy == release::Strategy::kZeroDowntime) {
      runZdrRestart();
    } else {
      runHardRestart();
    }
    restartInProgress_.store(false, std::memory_order_release);
  });
}

void ProxyHost::runZdrRestart() {
  if (metrics_) {
    metrics_->timeline().begin(name_, "restart", "zdr");
  }
  // Fig 5 workflow. Step A: the old instance spawns the takeover
  // server bound to the pre-specified path.
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_) {
      active_->armTakeoverServer();
    }
  });

  // Step B–D: the new instance connects, receives the fds, ACKs. This
  // exchange is blocking and runs on the restart thread — exactly like
  // the new process performing its startup sequence.
  std::error_code ec;
  auto handoff =
      takeover::TakeoverClient::takeover(config_.takeoverPath, ec);
  if (!handoff) {
    // Takeover failed; the old instance keeps serving (availability
    // must not regress just because a release failed, §5.1).
    if (metrics_) {
      metrics_->counter(name_ + ".takeover_failed").add();
      metrics_->timeline().end(name_, "restart", "takeover_failed");
    }
    return;
  }

  // Spin up the updated instance with the adopted sockets; it starts
  // answering new connections and health checks immediately.
  thread_.runSync([this, &handoff] {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = std::move(active_);
    active_ = std::make_unique<proxygen::Proxy>(
        thread_.loop(), config_, metrics_, std::move(*handoff));
  });

  // Step E already fired inside the loop when the ACK arrived (the
  // takeover server calls enterDrain). Wait out the drain.
  while (true) {
    bool done = false;
    thread_.runSync([this, &done] {
      std::lock_guard<std::mutex> lock(mutex_);
      done = !draining_ || draining_->terminated();
    });
    if (done) {
      break;
    }
    sleepMs(5);
  }
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    // quicish flows outlive the drain: the updated instance takes them
    // over before the retired one (and its forward socket) is gone.
    if (draining_ && active_ && draining_->quicServer() &&
        active_->quicServer()) {
      active_->quicServer()->adoptFlows(*draining_->quicServer());
    }
    draining_.reset();
  });
  if (metrics_) {
    metrics_->counter(name_ + ".zdr_restarts").add();
    metrics_->timeline().end(name_, "restart", "zdr");
  }
  archiveTraceCapture(metrics_, name_);
}

void ProxyHost::runHardRestart() {
  if (metrics_) {
    metrics_->timeline().begin(name_, "restart", "hard");
  }
  // Traditional release: drain (failing health checks), terminate,
  // boot the new binary. The host serves nothing during boot.
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_) {
      active_->startHardDrain();
    }
  });
  while (true) {
    bool done = false;
    thread_.runSync([this, &done] {
      std::lock_guard<std::mutex> lock(mutex_);
      done = !active_ || active_->terminated();
    });
    if (done) {
      break;
    }
    sleepMs(5);
  }
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.reset();
  });

  sleepMs(opts_.bootDelay.count());  // new binary boots

  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    active_ = std::make_unique<proxygen::Proxy>(thread_.loop(), config_,
                                                metrics_);
  });
  if (metrics_) {
    metrics_->counter(name_ + ".hard_restarts").add();
    metrics_->timeline().end(name_, "restart", "hard");
  }
}

// --------------------------------------------------------------- AppHost

AppHost::AppHost(std::string name, const SocketAddr& addr,
                 MetricsRegistry* metrics, Options opts)
    : name_(std::move(name)),
      metrics_(metrics),
      opts_(opts),
      thread_(name_) {
  opts_.server.name = name_;
  thread_.runSync([this, &addr] {
    server_ = std::make_unique<appserver::AppServer>(
        thread_.loop(), addr, opts_.server, metrics_);
    addr_ = server_->localAddr();
  });
}

AppHost::~AppHost() {
  joinRestartThread();
  thread_.runSync([this] { server_.reset(); });
}

void AppHost::joinRestartThread() {
  if (restartThread_.joinable()) {
    restartThread_.join();
  }
}

void AppHost::waitRestart() {
  while (restartInProgress_.load(std::memory_order_acquire)) {
    sleepMs(5);
  }
  joinRestartThread();
}

void AppHost::withServer(
    const std::function<void(appserver::AppServer*)>& fn) {
  thread_.runSync([this, &fn] {
    std::lock_guard<std::mutex> lock(mutex_);
    fn(server_.get());
  });
}

void AppHost::beginRestart(release::Strategy) {
  bool expected = false;
  if (!restartInProgress_.compare_exchange_strong(expected, true)) {
    return;
  }
  joinRestartThread();
  restartThread_ = std::thread([this] {
    runRestart();
    restartInProgress_.store(false, std::memory_order_release);
  });
}

void AppHost::runRestart() {
  if (metrics_) {
    metrics_->timeline().begin(name_, "restart", "app");
  }
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (server_) {
      server_->startDrain();
    }
  });
  // Wait out the drain period, but leave early once every connection
  // is gone — a tier that drained in 50 ms should not sit dark for the
  // full worst-case window (the paper's point about drain cost scaling
  // with the slowest straggler, not the average).
  auto waited = Duration{0};
  const auto slice = Duration{10};
  while (waited < opts_.drainPeriod) {
    bool idle = false;
    thread_.runSync([this, &idle] {
      std::lock_guard<std::mutex> lock(mutex_);
      idle = !server_ || server_->activeConnections() == 0;
    });
    if (idle) {
      if (metrics_) {
        metrics_->counter(name_ + ".drain_early_exit").add();
      }
      break;
    }
    sleepMs(static_cast<uint64_t>(slice.count()));
    waited += slice;
  }
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    if (server_) {
      server_->terminate();
    }
    server_.reset();
  });
  sleepMs(opts_.bootDelay.count());
  thread_.runSync([this] {
    std::lock_guard<std::mutex> lock(mutex_);
    server_ = std::make_unique<appserver::AppServer>(
        thread_.loop(), addr_, opts_.server, metrics_);
  });
  if (metrics_) {
    metrics_->counter(name_ + ".restarts").add();
    metrics_->timeline().end(name_, "restart", "app");
  }
}

// ------------------------------------------------------------- BrokerHost

BrokerHost::BrokerHost(std::string name, MetricsRegistry* metrics,
                       mqtt::Broker::Options opts)
    : name_(std::move(name)), thread_(name_) {
  thread_.runSync([this, metrics, &opts] {
    broker_ = std::make_unique<mqtt::Broker>(
        thread_.loop(), SocketAddr::loopback(0), opts, metrics);
    addr_ = broker_->localAddr();
  });
}

BrokerHost::~BrokerHost() {
  // Loop-confined members must die on the loop thread.
  thread_.runSync([this] { broker_.reset(); });
}

void BrokerHost::withBroker(const std::function<void(mqtt::Broker&)>& fn) {
  thread_.runSync([this, &fn] { fn(*broker_); });
}

// ---------------------------------------------------------------- L4Host

L4Host::L4Host(std::string name, MetricsRegistry* metrics)
    : name_(std::move(name)), metrics_(metrics), thread_(name_) {}

L4Host::~L4Host() {
  thread_.runSync([this] {
    forwarders_.clear();
    balancers_.clear();
  });
}

SocketAddr L4Host::addUdpVip(const std::string& vipName,
                             std::vector<l4lb::UdpForwarder::Backend> backends,
                             l4lb::UdpForwarder::Options opts) {
  SocketAddr vip;
  thread_.runSync([this, &vipName, &backends, &opts, &vip] {
    auto fwd = std::make_unique<l4lb::UdpForwarder>(
        thread_.loop(), SocketAddr::loopback(0), std::move(backends), opts,
        metrics_);
    vip = fwd->vip();
    forwarders_[vipName] = std::move(fwd);
  });
  return vip;
}

void L4Host::withUdpForwarder(
    const std::string& vipName,
    const std::function<void(l4lb::UdpForwarder&)>& fn) {
  thread_.runSync([this, &vipName, &fn] {
    auto it = forwarders_.find(vipName);
    if (it != forwarders_.end()) {
      fn(*it->second);
    }
  });
}

SocketAddr L4Host::addVip(const std::string& vipName,
                          std::vector<l4lb::BackendTarget> backends,
                          l4lb::L4Balancer::Options opts) {
  SocketAddr vip;
  thread_.runSync([this, &vipName, &backends, &opts, &vip] {
    auto balancer = std::make_unique<l4lb::L4Balancer>(
        thread_.loop(), SocketAddr::loopback(0), std::move(backends), opts,
        metrics_);
    vip = balancer->vip();
    balancers_[vipName] = std::move(balancer);
  });
  return vip;
}

void L4Host::withBalancer(const std::string& vipName,
                          const std::function<void(l4lb::L4Balancer&)>& fn) {
  thread_.runSync([this, &vipName, &fn] {
    auto it = balancers_.find(vipName);
    if (it != balancers_.end()) {
      fn(*it->second);
    }
  });
}

}  // namespace zdr::core
