// Reduced-copy relay fast path: pooled splice(2) pipes, Connection
// relay mode, the Edge's streamed-response relay, MQTT pass-through
// tunnels, and the shared LRU helper both caches now ride on.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "core/testbed.h"
#include "core/workload.h"
#include "http/client.h"
#include "netcore/connection.h"
#include "netcore/event_loop.h"
#include "netcore/io_stats.h"
#include "netcore/lru_map.h"
#include "netcore/socket.h"
#include "netcore/splice_relay.h"

namespace zdr::core {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 10000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

http::Client::Result doRequest(EventLoopThread& loop, const SocketAddr& addr,
                               http::Request req,
                               Duration timeout = Duration{5000}) {
  std::atomic<bool> done{false};
  http::Client::Result result;
  std::shared_ptr<http::Client> client;
  loop.runSync([&] {
    client = http::Client::make(loop.loop(), addr);
    client->request(std::move(req),
                    [&](http::Client::Result r) {
                      result = r;
                      done.store(true);
                    },
                    timeout);
  });
  for (int i = 0; i < 10000 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(done.load());
  loop.runSync([&] { client->close(); });
  return result;
}

// --------------------------------------------------------- LruMap helper

TEST(LruMapTest, TouchRefreshesRecencyAndEvictOldestDropsTail) {
  LruMap<int, std::string> lru;
  lru.insertFront(1, "a");
  lru.insertFront(2, "b");
  lru.insertFront(3, "c");
  ASSERT_EQ(lru.size(), 3u);

  // Touch 1 → order is 1,3,2; the oldest is now 2.
  ASSERT_NE(lru.touch(1), nullptr);
  EXPECT_EQ(*lru.touch(1), "a");
  EXPECT_TRUE(lru.evictOldest());
  EXPECT_EQ(lru.touch(2), nullptr);
  EXPECT_NE(lru.touch(1), nullptr);
  EXPECT_NE(lru.touch(3), nullptr);

  EXPECT_TRUE(lru.erase(3));
  EXPECT_FALSE(lru.erase(3));
  EXPECT_EQ(lru.size(), 1u);
  lru.clear();
  EXPECT_TRUE(lru.empty());
  EXPECT_FALSE(lru.evictOldest());
}

// --------------------------------------------------------- pipe pooling

TEST(PipePoolTest, ReusesDrainedPairsAndRefusesDirtyOnes) {
  auto& pool = PipePool::forThisThread();
  uint64_t created0 = ioStats().pipePoolCreated.load();

  RelayPipe p = pool.acquire();
  ASSERT_TRUE(p.valid());
  EXPECT_GE(ioStats().pipePoolCreated.load(), created0);
  pool.release(std::move(p));
  size_t freeAfterRelease = pool.freeCount();
  ASSERT_GE(freeAfterRelease, 1u);

  uint64_t reused0 = ioStats().pipePoolReused.load();
  RelayPipe q = pool.acquire();
  ASSERT_TRUE(q.valid());
  EXPECT_EQ(ioStats().pipePoolReused.load(), reused0 + 1);

  // A pipe still holding bytes must NOT return to the free list.
  q.buffered = 128;
  pool.release(std::move(q));
  EXPECT_EQ(pool.freeCount(), freeAfterRelease - 1);
}

// ------------------------------------------------- Connection relay mode

// Accepted + connected TCP loopback pair (both ends nonblocking).
std::pair<TcpSocket, TcpSocket> makeTcpPair() {
  TcpListener listener(SocketAddr::loopback(0));
  std::error_code ec;
  TcpSocket client = TcpSocket::connect(listener.localAddr(), ec);
  EXPECT_FALSE(ec);
  pollfd pfd{client.fd(), POLLOUT, 0};
  EXPECT_GT(::poll(&pfd, 1, 2000), 0);
  std::optional<TcpSocket> server;
  for (int i = 0; i < 2000 && !server; ++i) {
    server = listener.accept(ec);
    if (!server) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(server.has_value());
  return {std::move(client), std::move(*server)};
}

struct RelayRig {
  EventLoopThread loop{"relay"};
  ConnectionPtr left;   // relay source (we write into its peer)
  ConnectionPtr right;  // relay sink (we read from its peer)
  TcpSocket leftPeer;
  TcpSocket rightPeer;

  RelayRig() {
    auto [ca, sa] = makeTcpPair();
    auto [cb, sb] = makeTcpPair();
    leftPeer = std::move(ca);
    rightPeer = std::move(cb);
    auto* sap = &sa;
    auto* sbp = &sb;
    loop.runSync([&, sap, sbp] {
      left = Connection::make(loop.loop(), std::move(*sap));
      right = Connection::make(loop.loop(), std::move(*sbp));
      right->setDataCallback([](Buffer&) {});
      right->start();
      left->start();
      left->startRelayTo(right);
    });
  }

  ~RelayRig() {
    loop.runSync([&] {
      if (left->open()) {
        left->close({});
      }
      if (right->open()) {
        right->close({});
      }
    });
  }

  std::string pump(const std::string& payload) {
    size_t off = 0;
    std::string got;
    char buf[16384];
    while (got.size() < payload.size()) {
      if (off < payload.size()) {
        ssize_t w = ::write(leftPeer.fd(), payload.data() + off,
                            std::min<size_t>(payload.size() - off, 65536));
        if (w > 0) {
          off += static_cast<size_t>(w);
        }
      }
      ssize_t r = ::read(rightPeer.fd(), buf, sizeof(buf));
      if (r > 0) {
        got.append(buf, static_cast<size_t>(r));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    return got;
  }
};

TEST(SpliceRelayTest, FastPathMovesBytesInKernel) {
  if (!spliceRelayEnabled()) {
    GTEST_SKIP() << "ZDR_NO_SPLICE_RELAY set";
  }
  std::string payload(512 * 1024, 'x');
  for (size_t i = 0; i < payload.size(); i += 509) {
    payload[i] = static_cast<char>('a' + (i % 17));
  }
  uint64_t splice0 = ioStats().spliceBytes.load();
  RelayRig rig;
  std::string got = rig.pump(payload);
  EXPECT_EQ(got, payload);
  // Every relayed byte moved socket→pipe→socket twice (in + out).
  EXPECT_GE(ioStats().spliceBytes.load() - splice0, 2 * payload.size());
  rig.loop.runSync(
      [&] { EXPECT_GE(rig.left->relayedBytes(), payload.size()); });
}

TEST(SpliceRelayTest, KillSwitchCopyPumpIsByteIdentical) {
  setSpliceRelayEnabled(false);
  std::string payload(256 * 1024, 'y');
  for (size_t i = 0; i < payload.size(); i += 251) {
    payload[i] = static_cast<char>('A' + (i % 23));
  }
  uint64_t splice0 = ioStats().spliceBytes.load();
  {
    RelayRig rig;
    std::string got = rig.pump(payload);
    EXPECT_EQ(got, payload);
  }
  // The copying pump must not touch the splice counters.
  EXPECT_EQ(ioStats().spliceBytes.load(), splice0);
  setSpliceRelayEnabled(true);
}

// ------------------------------------------- Edge streamed-response relay

constexpr size_t kBigBody = 512 * 1024;

void installBigBodyHandler(Testbed& bed) {
  for (size_t i = 0; i < bed.appCount(); ++i) {
    bed.app(i).withServer([](appserver::AppServer* s) {
      s->setHandler([](const http::Request& req, http::Response& res) {
        res.status = 200;
        if (req.path.rfind("/big", 0) == 0) {
          res.body.assign(kBigBody, 'B');
          res.body[0] = 'S';
          res.body[kBigBody - 1] = 'E';
        } else {
          res.body = "ok:" + req.path;
        }
      });
    });
  }
}

TEST(RelayModeTest, LargeResponseStreamsThroughWithoutRebuffering) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.proxyConfigHook = [](proxygen::Proxy::Config& c) {
    c.relayThresholdBytes = 64 * 1024;
  };
  Testbed bed(opts);
  installBigBodyHandler(bed);

  EventLoopThread clientLoop("client");
  http::Request req;
  req.path = "/big/1";
  auto result = doRequest(clientLoop, bed.httpEntry(), req);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.response.status, 200);
  ASSERT_EQ(result.response.body.size(), kBigBody);
  EXPECT_EQ(result.response.body.front(), 'S');
  EXPECT_EQ(result.response.body.back(), 'E');
  EXPECT_GE(bed.metrics().counter("edge.relay_mode_entered").value(), 1u);

  // A small response stays on the buffered path.
  http::Request small;
  small.path = "/api/ping";
  auto r2 = doRequest(clientLoop, bed.httpEntry(), small);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.response.body, "ok:/api/ping");
  EXPECT_EQ(bed.metrics().counter("edge.relay_mode_entered").value(), 1u);
}

TEST(RelayModeTest, ThresholdZeroDisablesRelayModeByteIdentical) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.proxyConfigHook = [](proxygen::Proxy::Config& c) {
    c.relayThresholdBytes = 0;  // kill switch at the config layer
  };
  Testbed bed(opts);
  installBigBodyHandler(bed);

  EventLoopThread clientLoop("client");
  http::Request req;
  req.path = "/big/2";
  auto result = doRequest(clientLoop, bed.httpEntry(), req);
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.response.body.size(), kBigBody);
  EXPECT_EQ(result.response.body.front(), 'S');
  EXPECT_EQ(result.response.body.back(), 'E');
  EXPECT_EQ(bed.metrics().counter("edge.relay_mode_entered").value(), 0u);
}

TEST(RelayModeTest, CopyBytesPerRequestHistogramIsRecorded) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  Testbed bed(opts);

  EventLoopThread clientLoop("client");
  http::Request req;
  req.path = "/api/object";
  auto result = doRequest(clientLoop, bed.httpEntry(), req);
  ASSERT_TRUE(result.ok);
  EXPECT_GE(bed.metrics().hdr("edge0.w0.copy_bytes_per_req").count(), 1u);
}

// ------------------------------------------------ MQTT pass-through mode

TEST(PassThroughTest, MqttTunnelRelaysEndToEnd) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = true;
  opts.proxyConfigHook = [](proxygen::Proxy::Config& c) {
    c.mqttPassThrough = true;
  };
  Testbed bed(opts);

  MqttFleet::Options fo;
  fo.clients = 4;
  fo.keepAliveInterval = Duration{50};
  MqttFleet fleet(bed.mqttEntry(), fo, bed.metrics(), "fleet");
  fleet.start();
  waitFor([&] { return fleet.connectedCount() == 4; });

  EXPECT_GE(bed.metrics().counter("edge.mqtt_passthrough_opened").value(),
            4u);
  EXPECT_GE(
      bed.metrics().counter("origin0.mqtt_passthrough_opened").value(), 4u);

  MqttPublisher::Options po;
  po.fleetSize = 4;
  po.interval = Duration{5};
  MqttPublisher publisher(bed.broker(0).addr(), po, bed.metrics(), "pub");
  publisher.start();
  waitFor([&] { return fleet.publishesReceived() >= 12; });
  publisher.stop();

  EXPECT_EQ(bed.metrics().counter("fleet.drops").value(), 0u);
  fleet.stop();
}

TEST(PassThroughTest, SpliceDisabledTunnelStillRelays) {
  setSpliceRelayEnabled(false);
  {
    TestbedOptions opts;
    opts.edges = 1;
    opts.origins = 1;
    opts.appServers = 1;
    opts.enableMqtt = true;
    opts.proxyConfigHook = [](proxygen::Proxy::Config& c) {
      c.mqttPassThrough = true;
    };
    Testbed bed(opts);

    MqttFleet::Options fo;
    fo.clients = 2;
    fo.keepAliveInterval = Duration{50};
    MqttFleet fleet(bed.mqttEntry(), fo, bed.metrics(), "fleet");
    fleet.start();
    waitFor([&] { return fleet.connectedCount() == 2; });

    MqttPublisher::Options po;
    po.fleetSize = 2;
    po.interval = Duration{5};
    MqttPublisher publisher(bed.broker(0).addr(), po, bed.metrics(), "pub");
    publisher.start();
    waitFor([&] { return fleet.publishesReceived() >= 6; });
    publisher.stop();

    EXPECT_EQ(bed.metrics().counter("fleet.drops").value(), 0u);
    fleet.stop();
  }
  setSpliceRelayEnabled(true);
}

}  // namespace
}  // namespace zdr::core
