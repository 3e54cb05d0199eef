// Workload generators playing the paper's traffic classes (§2.2):
//  * HttpLoadGen  — short-lived API requests (and cacheable GETs);
//  * UploadGen    — long POST uploads that straddle restarts (§4.3);
//  * MqttFleet    — persistent pub/sub clients with live publishes and
//                   reconnect-on-drop behaviour (§4.2, Fig 9);
//  * QuicFlowGen  — conn-ID datagram flows (Fig 2d / Fig 10).
//
// Every generator runs on its own event-loop thread and reports into a
// MetricsRegistry under a caller-chosen prefix.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "http/client.h"
#include "metrics/metrics.h"
#include "mqtt/client.h"
#include "netcore/event_loop.h"
#include "quicish/client.h"

namespace zdr::core {

class HttpLoadGen {
 public:
  struct Options {
    size_t concurrency = 8;
    Duration thinkTime = Duration{5};  // between a response and the next req
    std::string path = "/api/object";
    std::string method = "GET";
    size_t postBytes = 0;      // >0 ⇒ POST with this body size
    Duration timeout = Duration{3000};
  };

  // Counters: <prefix>.ok, .err_http (5xx), .err_transport, .err_timeout;
  // histogram <prefix>.latency_ms; series <prefix>.rps is derived by
  // callers from .ok deltas.
  HttpLoadGen(const SocketAddr& target, Options opts,
              MetricsRegistry& metrics, std::string prefix);
  ~HttpLoadGen();

  void start();
  void stop();
  [[nodiscard]] uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  void launchOne(size_t idx);

  SocketAddr target_;
  Options opts_;
  MetricsRegistry& metrics_;
  std::string prefix_;
  EventLoopThread thread_;
  std::vector<std::shared_ptr<http::Client>> clients_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> completed_{0};
};

class UploadGen {
 public:
  struct Options {
    size_t concurrency = 4;
    size_t chunks = 20;          // upload duration ≈ chunks × interval
    size_t chunkBytes = 2048;
    Duration chunkInterval = Duration{25};
    Duration pauseBetween = Duration{10};
    Duration timeout = Duration{30000};
    std::string path = "/upload";
  };

  // Counters: <prefix>.ok (upload completed, possibly after a PPR
  // replay), .err_http (500 — the disruption PPR prevents),
  // .err_transport, .err_timeout.
  UploadGen(const SocketAddr& target, Options opts, MetricsRegistry& metrics,
            std::string prefix);
  ~UploadGen();

  void start();
  void stop();
  [[nodiscard]] uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  void launchOne(size_t idx);

  SocketAddr target_;
  Options opts_;
  MetricsRegistry& metrics_;
  std::string prefix_;
  EventLoopThread thread_;
  std::vector<std::shared_ptr<http::Client>> clients_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> completed_{0};
};

class MqttFleet {
 public:
  struct Options {
    size_t clients = 20;
    // Reconnect delay after an unexpected drop (the client-side retry
    // storm the paper measures without DCR).
    Duration reconnectDelay = Duration{50};
    // PINGREQ keepalive (0 ⇒ disabled); dead transports are detected
    // and reconnected like production MQTT clients (§4.2).
    Duration keepAliveInterval = Duration{0};
    std::string topicPrefix = "t/";
    std::string userIdPrefix = "user";
  };

  // Counters: <prefix>.publish_received, .connack, .session_resumed,
  // .drops, .reconnects.
  MqttFleet(const SocketAddr& entry, Options opts, MetricsRegistry& metrics,
            std::string prefix);
  ~MqttFleet();

  void start();
  void stop();
  [[nodiscard]] size_t connectedCount() const {
    return connected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t publishesReceived() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  void connectOne(size_t idx);

  SocketAddr entry_;
  Options opts_;
  MetricsRegistry& metrics_;
  std::string prefix_;
  EventLoopThread thread_;
  std::vector<std::shared_ptr<mqtt::Client>> clients_;
  std::atomic<bool> running_{false};
  std::atomic<size_t> connected_{0};
  std::atomic<uint64_t> publishes_{0};
};

// Publishes to each fleet member's topic in a round-robin at a fixed
// rate — the "Publish messages routed through the tunnel" of Fig 9.
class MqttPublisher {
 public:
  struct Options {
    size_t fleetSize = 20;
    Duration interval = Duration{5};  // between publishes
    std::string topicPrefix = "t/";
    std::string userIdPrefix = "user";
  };

  MqttPublisher(const SocketAddr& brokerAddr, Options opts,
                MetricsRegistry& metrics, std::string prefix);
  ~MqttPublisher();

  void start();
  void stop();

 private:
  SocketAddr broker_;
  Options opts_;
  MetricsRegistry& metrics_;
  std::string prefix_;
  EventLoopThread thread_;
  std::shared_ptr<mqtt::Client> client_;
  std::atomic<bool> running_{false};
  size_t next_ = 0;
  EventLoop::TimerId timer_ = 0;
};

// Long-lived quicish flows sending data at a fixed rate.
class QuicFlowGen {
 public:
  struct Options {
    size_t flows = 32;
    Duration sendInterval = Duration{5};
    size_t payloadBytes = 64;
  };

  QuicFlowGen(const SocketAddr& vip, Options opts, MetricsRegistry& metrics,
              std::string prefix);
  ~QuicFlowGen();

  void start();
  void stop();
  [[nodiscard]] uint64_t totalAcks() const;
  // Acks of the least-acked flow: stalls when any one flow is
  // black-holed, however well the others do.
  [[nodiscard]] uint64_t minFlowAcks() const;
  [[nodiscard]] uint64_t totalResets() const;

 private:
  SocketAddr vip_;
  Options opts_;
  MetricsRegistry& metrics_;
  std::string prefix_;
  EventLoopThread thread_;
  std::vector<std::unique_ptr<quicish::ClientFlow>> flows_;
  std::atomic<bool> running_{false};
  EventLoop::TimerId timer_ = 0;
};

}  // namespace zdr::core
