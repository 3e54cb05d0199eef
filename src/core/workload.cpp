#include "core/workload.h"

#include <algorithm>

namespace zdr::core {

// ------------------------------------------------------------ HttpLoadGen

HttpLoadGen::HttpLoadGen(const SocketAddr& target, Options opts,
                         MetricsRegistry& metrics, std::string prefix)
    : target_(target),
      opts_(opts),
      metrics_(metrics),
      prefix_(std::move(prefix)),
      thread_(prefix_) {}

HttpLoadGen::~HttpLoadGen() { stop(); }

void HttpLoadGen::start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_.runSync([this] {
    for (size_t i = 0; i < opts_.concurrency; ++i) {
      clients_.push_back(http::Client::make(thread_.loop(), target_));
      launchOne(i);
    }
  });
}

void HttpLoadGen::launchOne(size_t idx) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  auto client = clients_[idx];
  http::Request req;
  req.method = opts_.method;
  req.path = opts_.path;
  if (opts_.postBytes > 0) {
    req.method = "POST";
    req.body.assign(opts_.postBytes, 'p');
  }
  client->request(
      std::move(req),
      [this, idx](http::Client::Result r) {
        if (!running_.load(std::memory_order_relaxed)) {
          return;  // shutdown artifact, not a measured disruption
        }
        if (r.timedOut) {
          metrics_.counter(prefix_ + ".err_timeout").add();
        } else if (r.transportError) {
          metrics_.counter(prefix_ + ".err_transport").add();
        } else if (r.response.status >= 500) {
          metrics_.counter(prefix_ + ".err_http").add();
        } else {
          metrics_.counter(prefix_ + ".ok").add();
          completed_.fetch_add(1, std::memory_order_relaxed);
          metrics_.histogram(prefix_ + ".latency_ms")
              .record(r.latencySec * 1000.0);
        }
        if (running_.load(std::memory_order_relaxed)) {
          thread_.loop().runAfter(opts_.thinkTime,
                                  [this, idx] { launchOne(idx); });
        }
      },
      opts_.timeout);
}

void HttpLoadGen::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.runSync([this] {
    for (auto& c : clients_) {
      c->close();
    }
    clients_.clear();
  });
}

// -------------------------------------------------------------- UploadGen

UploadGen::UploadGen(const SocketAddr& target, Options opts,
                     MetricsRegistry& metrics, std::string prefix)
    : target_(target),
      opts_(opts),
      metrics_(metrics),
      prefix_(std::move(prefix)),
      thread_(prefix_) {}

UploadGen::~UploadGen() { stop(); }

void UploadGen::start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_.runSync([this] {
    for (size_t i = 0; i < opts_.concurrency; ++i) {
      clients_.push_back(http::Client::make(thread_.loop(), target_));
      launchOne(i);
    }
  });
}

void UploadGen::launchOne(size_t idx) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  auto client = clients_[idx];
  client->pacedPost(
      opts_.path, opts_.chunks, opts_.chunkBytes, opts_.chunkInterval,
      [this, idx](http::Client::Result r) {
        if (!running_.load(std::memory_order_relaxed)) {
          return;  // shutdown artifact, not a measured disruption
        }
        if (r.timedOut) {
          metrics_.counter(prefix_ + ".err_timeout").add();
        } else if (r.transportError) {
          metrics_.counter(prefix_ + ".err_transport").add();
        } else if (r.response.status >= 500) {
          // The disruption class PPR exists to prevent (§4.3).
          metrics_.counter(prefix_ + ".err_http").add();
        } else {
          metrics_.counter(prefix_ + ".ok").add();
          completed_.fetch_add(1, std::memory_order_relaxed);
        }
        if (running_.load(std::memory_order_relaxed)) {
          thread_.loop().runAfter(opts_.pauseBetween,
                                  [this, idx] { launchOne(idx); });
        }
      },
      opts_.timeout);
}

void UploadGen::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.runSync([this] {
    for (auto& c : clients_) {
      c->close();
    }
    clients_.clear();
  });
}

// -------------------------------------------------------------- MqttFleet

MqttFleet::MqttFleet(const SocketAddr& entry, Options opts,
                     MetricsRegistry& metrics, std::string prefix)
    : entry_(entry),
      opts_(opts),
      metrics_(metrics),
      prefix_(std::move(prefix)),
      thread_(prefix_) {
  clients_.resize(opts_.clients);
}

MqttFleet::~MqttFleet() { stop(); }

void MqttFleet::start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_.runSync([this] {
    for (size_t i = 0; i < opts_.clients; ++i) {
      connectOne(i);
    }
  });
}

void MqttFleet::connectOne(size_t idx) {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  std::string userId = opts_.userIdPrefix + std::to_string(idx);
  auto client = mqtt::Client::make(thread_.loop(), userId);
  clients_[idx] = client;

  client->setPublishCallback(
      [this](const std::string&, const std::string&) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
        metrics_.counter(prefix_ + ".publish_received").add();
      });
  client->setCloseCallback([this, idx](std::error_code) {
    connected_.fetch_sub(1, std::memory_order_relaxed);
    metrics_.counter(prefix_ + ".drops").add();
    if (running_.load(std::memory_order_relaxed)) {
      // Client-side retry: re-initiate "the normal way" — a fresh
      // session, which shows up at the broker as a new-connection ACK
      // storm when DCR is off (Fig 9).
      metrics_.counter(prefix_ + ".reconnects").add();
      thread_.loop().runAfter(opts_.reconnectDelay,
                              [this, idx] { connectOne(idx); });
    }
  });
  std::string topic = opts_.topicPrefix + userId;
  client->connect(entry_, /*cleanSession=*/true,
                  [this, client, topic](bool sessionPresent, uint8_t rc) {
                    if (rc == mqtt::kConnAccepted) {
                      connected_.fetch_add(1, std::memory_order_relaxed);
                      metrics_.counter(prefix_ + ".connack").add();
                      if (sessionPresent) {
                        metrics_.counter(prefix_ + ".session_resumed").add();
                      }
                      client->subscribe({topic});
                      if (opts_.keepAliveInterval.count() > 0) {
                        client->enableKeepAlive(opts_.keepAliveInterval);
                      }
                    }
                  });
}

void MqttFleet::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.runSync([this] {
    for (auto& c : clients_) {
      if (c) {
        c->abort();
      }
    }
    clients_.clear();
  });
}

// ---------------------------------------------------------- MqttPublisher

MqttPublisher::MqttPublisher(const SocketAddr& brokerAddr, Options opts,
                             MetricsRegistry& metrics, std::string prefix)
    : broker_(brokerAddr),
      opts_(opts),
      metrics_(metrics),
      prefix_(std::move(prefix)),
      thread_(prefix_) {}

MqttPublisher::~MqttPublisher() { stop(); }

void MqttPublisher::start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_.runSync([this] {
    client_ = mqtt::Client::make(thread_.loop(), "publisher");
    client_->connect(broker_, true, [this](bool, uint8_t rc) {
      if (rc != mqtt::kConnAccepted) {
        return;
      }
      timer_ = thread_.loop().runEvery(opts_.interval, [this] {
        if (!running_.load(std::memory_order_relaxed)) {
          return;
        }
        std::string user =
            opts_.userIdPrefix + std::to_string(next_ % opts_.fleetSize);
        ++next_;
        client_->publish(opts_.topicPrefix + user, "notification");
        metrics_.counter(prefix_ + ".publish_sent").add();
      });
    });
  });
}

void MqttPublisher::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.runSync([this] {
    thread_.loop().cancelTimer(timer_);
    if (client_) {
      client_->abort();
      client_ = nullptr;
    }
  });
}

// ------------------------------------------------------------ QuicFlowGen

QuicFlowGen::QuicFlowGen(const SocketAddr& vip, Options opts,
                         MetricsRegistry& metrics, std::string prefix)
    : vip_(vip),
      opts_(opts),
      metrics_(metrics),
      prefix_(std::move(prefix)),
      thread_(prefix_) {}

QuicFlowGen::~QuicFlowGen() { stop(); }

void QuicFlowGen::start() {
  if (running_.exchange(true)) {
    return;
  }
  thread_.runSync([this] {
    for (size_t i = 0; i < opts_.flows; ++i) {
      flows_.push_back(std::make_unique<quicish::ClientFlow>(
          thread_.loop(), vip_, 0x1000 + i));
      flows_.back()->sendInitial();
    }
    timer_ = thread_.loop().runEvery(opts_.sendInterval, [this] {
      if (!running_.load(std::memory_order_relaxed)) {
        return;
      }
      for (auto& f : flows_) {
        f->sendData(opts_.payloadBytes);
      }
      metrics_.counter(prefix_ + ".datagrams_sent").add(flows_.size());
    });
  });
}

void QuicFlowGen::stop() {
  if (!running_.exchange(false)) {
    return;
  }
  thread_.runSync([this] {
    thread_.loop().cancelTimer(timer_);
    flows_.clear();
  });
}

uint64_t QuicFlowGen::totalAcks() const {
  uint64_t total = 0;
  const_cast<QuicFlowGen*>(this)->thread_.runSync([this, &total] {
    for (const auto& f : flows_) {
      total += f->acks();
    }
  });
  return total;
}

uint64_t QuicFlowGen::minFlowAcks() const {
  uint64_t least = 0;
  const_cast<QuicFlowGen*>(this)->thread_.runSync([this, &least] {
    for (size_t i = 0; i < flows_.size(); ++i) {
      least = i == 0 ? flows_[i]->acks() : std::min(least, flows_[i]->acks());
    }
  });
  return least;
}

uint64_t QuicFlowGen::totalResets() const {
  uint64_t total = 0;
  const_cast<QuicFlowGen*>(this)->thread_.runSync([this, &total] {
    for (const auto& f : flows_) {
      total += f->resets();
    }
  });
  return total;
}

}  // namespace zdr::core
