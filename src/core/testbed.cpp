#include "core/testbed.h"

#include <stdexcept>

namespace zdr::core {

Testbed::Testbed(TestbedOptions opts) : opts_(opts) {
  // Build bottom-up: brokers and app servers, then origins that point
  // at them, then edges that trunk to the origins, then L4 in front.
  for (size_t i = 0; i < opts_.brokers; ++i) {
    brokers_.push_back(std::make_unique<BrokerHost>(
        opts_.namePrefix + "broker" + std::to_string(i), &metrics_));
  }

  for (size_t i = 0; i < opts_.appServers; ++i) {
    AppHost::Options ao;
    ao.server = opts_.appOptions;
    ao.server.pprEnabled = opts_.appPprOverride.value_or(opts_.pprEnabled);
    ao.server.spanSinkCapacity = opts_.spanSinkCapacity;
    ao.drainPeriod = opts_.appDrainPeriod;
    apps_.push_back(std::make_unique<AppHost>(
        opts_.namePrefix + "app" + std::to_string(i), SocketAddr::loopback(0),
        &metrics_, ao));
  }

  std::vector<proxygen::BackendRef> appRefs;
  for (const auto& a : apps_) {
    appRefs.push_back({a->hostName(), a->addr()});
  }
  std::vector<proxygen::BackendRef> brokerRefs;
  for (const auto& b : brokers_) {
    brokerRefs.push_back({b->hostName(), b->addr()});
  }

  for (size_t i = 0; i < opts_.origins; ++i) {
    proxygen::Proxy::Config cfg;
    cfg.role = proxygen::Proxy::Role::kOrigin;
    cfg.instanceId = static_cast<uint32_t>(100 + i);
    cfg.trunkAddr = SocketAddr::loopback(0);
    cfg.appServers = appRefs;
    cfg.brokers = brokerRefs;
    cfg.drainPeriod = opts_.proxyDrainPeriod;
    cfg.requestTimeout = opts_.requestTimeout;
    cfg.pprEnabled = opts_.pprEnabled;
    cfg.dcrEnabled = opts_.dcrEnabled;
    cfg.trunkWorkers = opts_.trunkWorkers;
    cfg.spanSinkCapacity = opts_.spanSinkCapacity;
    if (opts_.proxyConfigHook) {
      opts_.proxyConfigHook(cfg);
    }
    origins_.push_back(std::make_unique<ProxyHost>(
        opts_.namePrefix + "origin" + std::to_string(i), cfg, &metrics_));
  }

  std::vector<proxygen::BackendRef> originRefs;
  for (const auto& o : origins_) {
    originRefs.push_back({o->hostName(), o->trunkAddr()});
  }

  for (size_t i = 0; i < opts_.edges; ++i) {
    proxygen::Proxy::Config cfg;
    cfg.role = proxygen::Proxy::Role::kEdge;
    cfg.instanceId = static_cast<uint32_t>(i);
    cfg.httpVip = SocketAddr::loopback(0);
    cfg.enableHttpVip = true;
    cfg.enableMqttVip = opts_.enableMqtt;
    cfg.mqttVip = SocketAddr::loopback(0);
    cfg.enableQuicVip = opts_.enableQuic;
    cfg.quicVip = SocketAddr::loopback(0);
    cfg.origins = originRefs;
    cfg.drainPeriod = opts_.proxyDrainPeriod;
    cfg.requestTimeout = opts_.requestTimeout;
    cfg.dcrEnabled = opts_.dcrEnabled;
    cfg.udpUserSpaceRouting = opts_.udpUserSpaceRouting;
    cfg.httpWorkers = opts_.httpWorkers;
    cfg.spanSinkCapacity = opts_.spanSinkCapacity;
    if (opts_.proxyConfigHook) {
      opts_.proxyConfigHook(cfg);
    }
    edges_.push_back(std::make_unique<ProxyHost>(
        opts_.namePrefix + "edge" + std::to_string(i), cfg, &metrics_));
  }

  if (opts_.enableL4) {
    l4_ = std::make_unique<L4Host>(opts_.namePrefix + "l4", &metrics_);
    std::vector<l4lb::BackendTarget> httpBackends;
    std::vector<l4lb::BackendTarget> mqttBackends;
    for (const auto& e : edges_) {
      httpBackends.push_back({e->hostName(), e->httpVip()});
      if (opts_.enableMqtt) {
        mqttBackends.push_back({e->hostName() + "-mqtt", e->mqttVip()});
      }
    }
    l4HttpVip_ = l4_->addVip("http", std::move(httpBackends), opts_.l4Options);
    if (opts_.enableMqtt) {
      // The MQTT port speaks no HTTP, so `GET /__health` would never
      // pass there: probe it with a TCP connect (empty path) instead.
      l4lb::L4Balancer::Options mo = opts_.l4Options;
      mo.health.path.clear();
      l4MqttVip_ = l4_->addVip("mqtt", std::move(mqttBackends), mo);
    }
  }

  waitForTrunks();
}

Testbed::~Testbed() {
  // Edges first (they hold trunks into origins), then origins, apps,
  // brokers — reverse dependency order.
  edges_.clear();
  l4_.reset();
  origins_.clear();
  apps_.clear();
  brokers_.clear();
}

SocketAddr Testbed::httpEntry() const {
  if (l4_) {
    return l4HttpVip_;
  }
  return edges_.front()->httpVip();
}

SocketAddr Testbed::mqttEntry() const {
  if (l4_ && opts_.enableMqtt) {
    return l4MqttVip_;
  }
  return edges_.front()->mqttVip();
}

SocketAddr Testbed::httpEntry(size_t edgeIdx) const {
  return edges_.at(edgeIdx)->httpVip();
}

SocketAddr Testbed::mqttEntry(size_t edgeIdx) const {
  return edges_.at(edgeIdx)->mqttVip();
}

std::vector<release::RestartableHost*> Testbed::edgeHosts() {
  std::vector<release::RestartableHost*> out;
  for (auto& e : edges_) {
    out.push_back(e.get());
  }
  return out;
}

std::vector<release::RestartableHost*> Testbed::originHosts() {
  std::vector<release::RestartableHost*> out;
  for (auto& o : origins_) {
    out.push_back(o.get());
  }
  return out;
}

std::vector<release::RestartableHost*> Testbed::appHosts() {
  std::vector<release::RestartableHost*> out;
  for (auto& a : apps_) {
    out.push_back(a.get());
  }
  return out;
}

void Testbed::waitForTrunks(Duration timeout) {
  Stopwatch sw;
  while (sw.seconds() * 1000 < static_cast<double>(timeout.count())) {
    bool allUp = true;
    for (auto& e : edges_) {
      size_t originsUp = 0;
      for (auto& o : origins_) {
        bool up = false;
        o->withActiveProxy([&](proxygen::Proxy* p) {
          up = p != nullptr && p->trunkSessionCount() > 0;
        });
        if (up) {
          ++originsUp;
        }
      }
      if (originsUp < origins_.size()) {
        allUp = false;
      }
      (void)e;
    }
    if (allUp && !origins_.empty()) {
      // Each origin sees at least one trunk; give the remaining
      // handshakes one more tick.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  throw std::runtime_error("Testbed: trunks failed to establish");
}

}  // namespace zdr::core
