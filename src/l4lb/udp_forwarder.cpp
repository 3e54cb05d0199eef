#include "l4lb/udp_forwarder.h"

#include "l4lb/hashing.h"

namespace zdr::l4lb {

UdpForwarder::UdpForwarder(EventLoop& loop, const SocketAddr& vip,
                           std::vector<Backend> backends, Options opts,
                           MetricsRegistry* metrics)
    : loop_(loop),
      opts_(opts),
      metrics_(metrics),
      vipSock_(vip) {
  setBackends(std::move(backends));
  loop_.addFd(vipSock_.fd(), kEvRead, [this](uint32_t) { onVipReadable(); });
  reapTimer_ = loop_.runEvery(Duration{1000}, [this] { reapIdle(); });
}

UdpForwarder::~UdpForwarder() {
  loop_.cancelTimer(reapTimer_);
  if (vipSock_.valid() && loop_.watching(vipSock_.fd())) {
    loop_.removeFd(vipSock_.fd());
  }
  for (auto& [key, flow] : flows_) {
    if (flow->natSock.valid() && loop_.watching(flow->natSock.fd())) {
      loop_.removeFd(flow->natSock.fd());
    }
  }
}

void UdpForwarder::setBackends(std::vector<Backend> backends) {
  backends_ = std::move(backends);
  std::vector<std::string> names;
  names.reserve(backends_.size());
  for (const auto& b : backends_) {
    names.push_back(b.name);
  }
  maglev_.rebuild(names);
}

UdpForwarder::Flow* UdpForwarder::flowFor(const SocketAddr& client) {
  uint64_t key = mix64(client.hashKey());
  auto it = flows_.find(key);
  if (it != flows_.end()) {
    return it->second.get();
  }

  auto idx = maglev_.pick(key);
  if (!idx) {
    return nullptr;
  }

  auto flow = std::make_unique<Flow>();
  flow->client = client;
  flow->backend = backends_[*idx].addr;
  flow->natSock = UdpSocket(SocketAddr::loopback(0));
  flow->lastActive = Clock::now();
  loop_.addFd(flow->natSock.fd(), kEvRead,
              [this, key](uint32_t) { onNatReadable(key); });
  Flow* raw = flow.get();
  flows_[key] = std::move(flow);
  if (metrics_) {
    metrics_->counter("l4udp.flows_opened").add();
  }
  return raw;
}

void UdpForwarder::onVipReadable() {
  // Drain a batch per recvmmsg; consecutive datagrams of the same flow
  // (the common case — clients burst) stage into one sendmmsg out of
  // that flow's NAT socket.
  std::error_code ec;
  while (!ec) {
    vipSock_.recvMany(rxBatch_, ec);
    Flow* cur = nullptr;
    for (size_t i = 0; i < rxBatch_.size(); ++i) {
      Flow* flow = flowFor(rxBatch_.from(i));
      if (flow == nullptr) {
        continue;  // no backends
      }
      if (flow != cur) {
        flushToBackend(cur);
        cur = flow;
      }
      flow->lastActive = Clock::now();
      if (txBatch_.full()) {
        flushToBackend(cur);
      }
      txBatch_.push(rxBatch_.data(i), flow->backend);
    }
    flushToBackend(cur);
  }
}

void UdpForwarder::flushToBackend(Flow* flow) {
  if (flow == nullptr || txBatch_.empty()) {
    return;
  }
  std::error_code ec;
  forwarded_ += flow->natSock.sendMany(txBatch_, ec);
}

void UdpForwarder::onNatReadable(uint64_t flowKey) {
  auto it = flows_.find(flowKey);
  if (it == flows_.end()) {
    return;
  }
  Flow* flow = it->second.get();
  std::error_code ec;
  while (!ec) {
    flow->natSock.recvMany(rxBatch_, ec);
    if (rxBatch_.size() > 0) {
      flow->lastActive = Clock::now();
    }
    for (size_t i = 0; i < rxBatch_.size(); ++i) {
      if (txBatch_.full()) {
        flushReturns();
      }
      txBatch_.push(rxBatch_.data(i), flow->client);
    }
    flushReturns();
  }
}

void UdpForwarder::flushReturns() {
  if (txBatch_.empty()) {
    return;
  }
  std::error_code ec;
  returned_ += vipSock_.sendMany(txBatch_, ec);
}

void UdpForwarder::reapIdle() {
  if (metrics_) {
    auto s = pool_.stats();
    metrics_->gauge("l4udp.pool_hits").set(static_cast<double>(s.hits));
    metrics_->gauge("l4udp.pool_misses").set(static_cast<double>(s.misses));
    metrics_->gauge("l4udp.pool_outstanding")
        .set(static_cast<double>(s.outstanding));
  }
  TimePoint now = Clock::now();
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second->lastActive > opts_.flowIdleTimeout) {
      if (loop_.watching(it->second->natSock.fd())) {
        loop_.removeFd(it->second->natSock.fd());
      }
      it = flows_.erase(it);
      if (metrics_) {
        metrics_->counter("l4udp.flows_reaped").add();
      }
    } else {
      ++it;
    }
  }
}

}  // namespace zdr::l4lb
