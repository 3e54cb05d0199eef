// L4Balancer end to end: requests through the VIP reach a healthy
// backend over real sockets.
#include <atomic>
#include <gtest/gtest.h>

#include "appserver/app_server.h"
#include "http/client.h"
#include "l4lb/balancer.h"

namespace zdr::l4lb {
namespace {

TEST(L4ConfigTest, RoutesRequestsEndToEnd) {
  MetricsRegistry metrics;
  EventLoopThread serverLoop("servers");
  EventLoopThread lbLoop("lb");
  EventLoopThread clientLoop("client");

  std::vector<std::unique_ptr<appserver::AppServer>> servers;
  std::vector<BackendTarget> targets;
  serverLoop.runSync([&] {
    for (int i = 0; i < 3; ++i) {
      appserver::AppServer::Options opts;
      opts.name = "s" + std::to_string(i);
      servers.push_back(std::make_unique<appserver::AppServer>(
          serverLoop.loop(), SocketAddr::loopback(0), opts, &metrics));
      targets.push_back({opts.name, servers.back()->localAddr()});
    }
  });

  std::unique_ptr<L4Balancer> lb;
  SocketAddr vip;
  lbLoop.runSync([&] {
    L4Balancer::Options opts;
    opts.health.interval = Duration{50};
    lb = std::make_unique<L4Balancer>(lbLoop.loop(), SocketAddr::loopback(0),
                                      targets, opts, &metrics);
    vip = lb->vip();
  });
  for (int i = 0; i < 3000; ++i) {
    size_t healthy = 0;
    lbLoop.runSync([&] { healthy = lb->health().healthyCount(); });
    if (healthy == 3) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  int okCount = 0;
  for (int i = 0; i < 10; ++i) {
    std::atomic<bool> done{false};
    int status = 0;
    std::shared_ptr<http::Client> client;
    clientLoop.runSync([&] {
      client = http::Client::make(clientLoop.loop(), vip);
      http::Request req;
      req.path = "/api/" + std::to_string(i);
      client->request(req, [&](http::Client::Result r) {
        status = r.response.status;
        done.store(true);
      });
    });
    for (int w = 0; w < 3000 && !done.load(); ++w) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(done.load());
    if (status == 200) {
      ++okCount;
    }
    clientLoop.runSync([&] { client->close(); });
  }
  EXPECT_EQ(okCount, 10);

  lbLoop.runSync([&] { lb.reset(); });
  serverLoop.runSync([&] { servers.clear(); });
}

}  // namespace
}  // namespace zdr::l4lb
