// The Edge's streamed-response relay mode under injected faults: once
// the response head has gone out, a kill mid-body must truncate the
// client (never append a 502 after partial bytes) and leave the proxy
// serving.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "core/testbed.h"
#include "http/client.h"
#include "netcore/fault_injection.h"

namespace zdr::core {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 15000) {
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

constexpr size_t kBigBody = 512 * 1024;

void installBigBodyHandler(Testbed& bed) {
  for (size_t i = 0; i < bed.appCount(); ++i) {
    bed.app(i).withServer([](appserver::AppServer* s) {
      s->setHandler([](const http::Request& req, http::Response& res) {
        res.status = 200;
        if (req.path.rfind("/big", 0) == 0) {
          res.body.assign(kBigBody, 'B');
        } else {
          res.body = "ok:" + req.path;
        }
      });
    });
  }
}

TEST(ChaosRelayTest, KillAtByteMidRelayTruncatesClientNotProxy) {
  // Chaos mode live while the testbed builds so fds get their tags.
  fault::ScopedChaosMode chaos;

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

  // Sever the user-facing edge connection partway through the body:
  // the client must see a hard truncation at the kill offset, never a
  // proxy crash or a stuck relay.
  fault::FaultSpec spec;
  spec.killAtByte = 100 * 1024;
  fault::FaultRegistry::instance().armTag("edge.user", spec);

  EventLoopThread clientLoop("client");
  http::Request req;
  req.path = "/big/killed";
  auto result = doRequest(clientLoop, bed.httpEntry(), req);
  EXPECT_FALSE(result.ok);  // truncated body can never complete
  EXPECT_GE(fault::FaultRegistry::instance().stats().writesKilled, 1u);

  // The proxy survives: the same request with the fault disarmed
  // completes end to end.
  fault::FaultRegistry::instance().disarmTag("edge.user");
  auto retry = doRequest(clientLoop, bed.httpEntry(), req);
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.response.body.size(), kBigBody);
  EXPECT_GE(bed.metrics().counter("edge.relay_mode_entered").value(), 1u);
}

TEST(ChaosRelayTest, TrunkDeathMidRelayClosesClientInsteadOf502) {
  fault::ScopedChaosMode chaos;

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

  // Kill the trunk (edge side) partway through relaying the body
  // upstream→downstream. In relay mode the head already went out, so
  // the edge must reset the client connection — appending a 502 after
  // partial body bytes would corrupt the stream.
  fault::FaultSpec spec;
  spec.killAtByte = 150 * 1024;
  fault::FaultRegistry::instance().armTag("trunk.origin", spec);

  EventLoopThread clientLoop("client");
  http::Request req;
  req.path = "/big/trunkdead";
  auto result = doRequest(clientLoop, bed.httpEntry(), req);
  EXPECT_FALSE(result.ok);
  // The 502 body would have parsed as extra response bytes; a reset
  // (transport error) is the only acceptable outcome.
  EXPECT_NE(result.response.status, 502);
  waitFor([&] {
    return bed.metrics().counter("edge.err.stream_abort").value() >= 1;
  });
}

}  // namespace
}  // namespace zdr::core
