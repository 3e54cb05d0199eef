// The Edge's streamed-response relay mode and the shared LRU helper
// both caches ride on.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/testbed.h"
#include "http/client.h"
#include "netcore/event_loop.h"
#include "netcore/lru_map.h"

namespace zdr::core {
namespace {

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

}  // namespace
}  // namespace zdr::core
