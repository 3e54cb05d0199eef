#include "l4lb/balancer.h"

#include "l4lb/hashing.h"

namespace zdr::l4lb {

// One spliced client↔backend flow. Its backend connection is the pin:
// nothing re-routes the flow once it is accepted.
struct L4Balancer::Flow : std::enable_shared_from_this<L4Balancer::Flow> {
  ConnectionPtr client;
  ConnectionPtr backend;
  bool established = false;
  Buffer pendingClientData;  // bytes read before the backend connected
};

L4Balancer::L4Balancer(EventLoop& loop, const SocketAddr& vip,
                       std::vector<BackendTarget> backends, Options opts,
                       MetricsRegistry* metrics)
    : loop_(loop),
      opts_(opts),
      metrics_(metrics),
      backends_(std::move(backends)) {
  health_ = std::make_unique<HealthChecker>(
      loop_, backends_, opts_.health, [this] { rebuildHealthySet(); },
      metrics_);
  acceptor_ = std::make_unique<Acceptor>(
      loop_, TcpListener(vip),
      [this](TcpSocket sock) { onAccept(std::move(sock)); });
  rebuildHealthySet();
}

L4Balancer::~L4Balancer() {
  // Flows capture `this` in their close callbacks and can outlive the
  // balancer: the Flow⇄Connection shared_ptr cycle only breaks when a
  // connection closes, so a flow whose FIN hasn't been dispatched yet
  // would still be registered with the loop after this destructor —
  // and its close callback would touch a dead balancer. Tear every
  // survivor down now, callbacks detached first.
  auto flows = std::move(flows_);
  for (const auto& f : flows) {
    if (f->client) {
      f->client->setCloseCallback(nullptr);
      f->client->close();
    }
    if (f->backend) {
      f->backend->setCloseCallback(nullptr);
      f->backend->close();
    }
  }
}

void L4Balancer::bump(const std::string& name) {
  if (metrics_) {
    metrics_->counter(name).add();
  }
}

void L4Balancer::setBackends(std::vector<BackendTarget> backends) {
  backends_ = std::move(backends);
  health_ = std::make_unique<HealthChecker>(
      loop_, backends_, opts_.health, [this] { rebuildHealthySet(); },
      metrics_);
  rebuildHealthySet();
}

void L4Balancer::rebuildHealthySet() {
  healthy_ = health_->healthyTargets();
  std::vector<std::string> names;
  names.reserve(healthy_.size());
  for (const auto& t : healthy_) {
    names.push_back(t.name);
  }
  // Only flows accepted from now on see the new mapping: live ones
  // already hold their backend connection.
  maglev_.rebuild(names);
}

const BackendTarget* L4Balancer::chooseBackend(uint64_t flowKey) {
  auto idx = maglev_.pick(flowKey);
  return idx ? &healthy_[*idx] : nullptr;
}

void L4Balancer::onAccept(TcpSocket sock) {
  bump("l4.flows_accepted");
  uint64_t flowKey = 0;
  try {
    SocketAddr peer = sock.peerAddr();
    flowKey = mix64(peer.hashKey());
  } catch (const std::system_error&) {
    return;  // client vanished before getpeername
  }

  const BackendTarget* target = chooseBackend(flowKey);
  if (target == nullptr) {
    bump("l4.flows_no_backend");
    return;  // drops the connection — no healthy backend
  }

  auto flow = std::make_shared<Flow>();
  flow->client = Connection::make(loop_, std::move(sock));
  flows_.insert(flow);

  auto self = flow;
  flow->client->setDataCallback([self](Buffer& in) {
    if (self->established && self->backend) {
      self->backend->send(in.readable());
    } else {
      self->pendingClientData.append(in.readable());
    }
    in.clear();
  });
  flow->client->setCloseCallback([this, self](std::error_code) {
    if (self->backend) {
      self->backend->closeAfterFlush();
    }
    removeFlow(self);
  });
  flow->client->start();

  bump("l4.to." + target->name);
  Connector::connect(
      loop_, target->addr, [this, self](TcpSocket bsock, std::error_code ec) {
        if (ec || !self->client || !self->client->open()) {
          bump("l4.backend_connect_failed");
          if (self->client) {
            self->client->close(ec);
          }
          removeFlow(self);
          return;
        }
        self->backend = Connection::make(loop_, std::move(bsock));
        self->backend->setDataCallback([self](Buffer& in) {
          if (self->client) {
            self->client->send(in.readable());
          }
          in.clear();
        });
        self->backend->setCloseCallback([this, self](std::error_code) {
          if (self->client) {
            self->client->closeAfterFlush();
          }
          removeFlow(self);
        });
        self->backend->start();
        self->established = true;
        if (!self->pendingClientData.empty()) {
          self->backend->send(self->pendingClientData.readable());
          self->pendingClientData.clear();
        }
      });
}

void L4Balancer::removeFlow(const std::shared_ptr<Flow>& flow) {
  flows_.erase(flow);
}

}  // namespace zdr::l4lb
