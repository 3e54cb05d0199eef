// L4LB: consistent hashing properties, health checking, and the TCP
// forwarder, whose per-flow record pins each flow to its backend.
#include <atomic>
#include <gtest/gtest.h>
#include <set>

#include "appserver/app_server.h"
#include "http/client.h"
#include "l4lb/balancer.h"
#include "l4lb/consistent_hash.h"
#include "l4lb/hashing.h"

namespace zdr::l4lb {
namespace {

std::vector<std::string> makeBackends(size_t n, const std::string& prefix) {
  std::vector<std::string> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(prefix + std::to_string(i));
  }
  return out;
}

// ---- parameterized over both hash implementations ----

enum class HashImpl { kRing, kMaglev };

std::unique_ptr<ConsistentHash> makeHash(HashImpl impl) {
  if (impl == HashImpl::kRing) {
    return std::make_unique<RingHash>();
  }
  return std::make_unique<MaglevHash>();
}

class ConsistentHashParamTest : public ::testing::TestWithParam<HashImpl> {};

TEST_P(ConsistentHashParamTest, EmptyReturnsNullopt) {
  auto hash = makeHash(GetParam());
  hash->rebuild({});
  EXPECT_FALSE(hash->pick(123).has_value());
}

TEST_P(ConsistentHashParamTest, SingleBackendTakesAll) {
  auto hash = makeHash(GetParam());
  hash->rebuild({"only"});
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(hash->pick(k), 0u);
  }
}

TEST_P(ConsistentHashParamTest, Deterministic) {
  auto a = makeHash(GetParam());
  auto b = makeHash(GetParam());
  auto backends = makeBackends(10, "b");
  a->rebuild(backends);
  b->rebuild(backends);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a->pick(k), b->pick(k));
  }
}

TEST_P(ConsistentHashParamTest, ReasonablyBalanced) {
  auto hash = makeHash(GetParam());
  constexpr size_t kBackends = 10;
  constexpr size_t kKeys = 20000;
  hash->rebuild(makeBackends(kBackends, "b"));
  std::vector<size_t> counts(kBackends, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    auto idx = hash->pick(mix64(k));
    ASSERT_TRUE(idx.has_value());
    counts[*idx]++;
  }
  double expected = static_cast<double>(kKeys) / kBackends;
  for (size_t c : counts) {
    EXPECT_GT(static_cast<double>(c), expected * 0.5);
    EXPECT_LT(static_cast<double>(c), expected * 1.7);
  }
}

TEST_P(ConsistentHashParamTest, RemovalOnlyMovesVictimKeys) {
  // Consistency property: removing one backend must not remap keys that
  // were on other backends (ring: exact; maglev: near-exact).
  auto before = makeHash(GetParam());
  auto after = makeHash(GetParam());
  auto backends = makeBackends(10, "b");
  before->rebuild(backends);
  auto reduced = backends;
  reduced.erase(reduced.begin() + 3);
  after->rebuild(reduced);

  size_t moved = 0;
  size_t total = 20000;
  for (uint64_t k = 0; k < total; ++k) {
    uint64_t key = mix64(k);
    auto b1 = before->pick(key);
    auto a1 = after->pick(key);
    std::string nameBefore = backends[*b1];
    std::string nameAfter = reduced[*a1];
    if (nameBefore != nameAfter) {
      ++moved;
      // Keys may only move off the removed backend (plus Maglev's
      // small table-reshuffle tolerance checked below).
    }
  }
  // ~1/10 of keys lived on the removed backend; allow 2x slack for
  // Maglev's minimal-disruption property being approximate.
  EXPECT_LT(moved, total / 5);
  EXPECT_GT(moved, total / 25);
}

INSTANTIATE_TEST_SUITE_P(AllHashes, ConsistentHashParamTest,
                         ::testing::Values(HashImpl::kRing,
                                           HashImpl::kMaglev),
                         [](const auto& info) {
                           return info.param == HashImpl::kRing ? "Ring"
                                                                : "Maglev";
                         });

TEST(MaglevTest, FillsWholeTable) {
  MaglevHash hash(2039);
  hash.rebuild(makeBackends(7, "x"));
  for (uint64_t k = 0; k < 4096; ++k) {
    EXPECT_TRUE(hash.pick(k).has_value());
  }
}

TEST(ConsistentHashTest, RemapFractionRingVsMaglev) {
  // Ablation hook: both should remap ~1/n keys on single-host removal.
  auto backends = makeBackends(20, "b");
  auto reduced = backends;
  reduced.pop_back();

  for (auto impl : {HashImpl::kRing, HashImpl::kMaglev}) {
    auto a = makeHash(impl);
    auto b = makeHash(impl);
    a->rebuild(backends);
    b->rebuild(backends);
    EXPECT_EQ(remapFraction(*a, *b, 5000), 0.0);
    b->rebuild(reduced);
    double frac = remapFraction(*a, *b, 5000);
    EXPECT_GT(frac, 0.01);
    EXPECT_LT(frac, 0.25);
  }
}

// ------------------------------------------------- balancer end-to-end

TEST(L4BalancerTest, ForwardsToHealthyBackendAndFailsOver) {
  MetricsRegistry metrics;
  EventLoopThread serverLoop("servers");
  EventLoopThread lbLoop("lb");
  EventLoopThread clientLoop("client");

  // Two app servers as backends.
  std::unique_ptr<appserver::AppServer> s1;
  std::unique_ptr<appserver::AppServer> s2;
  serverLoop.runSync([&] {
    appserver::AppServer::Options opts;
    opts.name = "s1";
    s1 = std::make_unique<appserver::AppServer>(
        serverLoop.loop(), SocketAddr::loopback(0), opts, &metrics);
    opts.name = "s2";
    s2 = std::make_unique<appserver::AppServer>(
        serverLoop.loop(), SocketAddr::loopback(0), opts, &metrics);
  });

  std::unique_ptr<L4Balancer> lb;
  lbLoop.runSync([&] {
    L4Balancer::Options opts;
    opts.health.interval = Duration{50};
    opts.health.failThreshold = 2;
    lb = std::make_unique<L4Balancer>(
        lbLoop.loop(), SocketAddr::loopback(0),
        std::vector<BackendTarget>{{"s1", s1->localAddr()},
                                   {"s2", s2->localAddr()}},
        opts, &metrics);
  });
  SocketAddr vip;
  lbLoop.runSync([&] { vip = lb->vip(); });

  // Wait until health checks mark both up.
  for (int i = 0; i < 3000; ++i) {
    size_t healthy = 0;
    lbLoop.runSync([&] { healthy = lb->health().healthyCount(); });
    if (healthy == 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto doRequest = [&](int& status) {
    std::atomic<bool> done{false};
    std::shared_ptr<http::Client> client;
    clientLoop.runSync([&] {
      client = http::Client::make(clientLoop.loop(), vip);
      http::Request req;
      req.path = "/api";
      client->request(req, [&](http::Client::Result r) {
        status = r.response.status;
        done.store(true);
      });
    });
    for (int i = 0; i < 3000 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(done.load());
    clientLoop.runSync([&] { client->close(); });
  };

  int status = 0;
  doRequest(status);
  EXPECT_EQ(status, 200);

  // Drain s1 (health goes 503) — traffic must shift to s2.
  serverLoop.runSync([&] { s1->startDrain(); });
  for (int i = 0; i < 3000; ++i) {
    size_t healthy = 2;
    lbLoop.runSync([&] { healthy = lb->health().healthyCount(); });
    if (healthy == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  size_t healthyNow = 0;
  lbLoop.runSync([&] { healthyNow = lb->health().healthyCount(); });
  EXPECT_EQ(healthyNow, 1u);

  int status2 = 0;
  doRequest(status2);
  EXPECT_EQ(status2, 200);  // served by s2

  lbLoop.runSync([&] { lb.reset(); });
  serverLoop.runSync([&] {
    s1.reset();
    s2.reset();
  });
}

// §5.1 on the real path: a health flap rebuilds Maglev over the new
// healthy set, yet every established flow keeps the backend it was
// accepted onto; only flows accepted after the flap see the new set.
TEST(L4BalancerTest, HealthFlapNeverMovesLiveFlows) {
  MetricsRegistry metrics;
  EventLoopThread serverLoop("servers");
  EventLoopThread lbLoop("lb");
  EventLoopThread clientLoop("client");

  // Three backends that answer every request with their own name.
  constexpr size_t kBackends = 3;
  std::vector<std::unique_ptr<appserver::AppServer>> servers;
  std::vector<BackendTarget> targets;
  serverLoop.runSync([&] {
    for (size_t i = 0; i < kBackends; ++i) {
      appserver::AppServer::Options opts;
      opts.name = "s" + std::to_string(i);
      servers.push_back(std::make_unique<appserver::AppServer>(
          serverLoop.loop(), SocketAddr::loopback(0), opts, &metrics));
      servers.back()->setHandler(
          [name = opts.name](const http::Request&, http::Response& res) {
            res.status = 200;
            res.body = name;
          });
      targets.push_back({opts.name, servers.back()->localAddr()});
    }
  });

  std::unique_ptr<L4Balancer> lb;
  SocketAddr vip;
  lbLoop.runSync([&] {
    L4Balancer::Options opts;
    opts.health.interval = Duration{20};
    opts.health.failThreshold = 1;
    lb = std::make_unique<L4Balancer>(lbLoop.loop(), SocketAddr::loopback(0),
                                      targets, opts, &metrics);
    vip = lb->vip();
  });
  auto waitHealthy = [&](size_t want) {
    size_t healthy = 0;
    for (int i = 0; i < 3000 && healthy != want; ++i) {
      lbLoop.runSync([&] { healthy = lb->health().healthyCount(); });
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(healthy, want);
  };
  waitHealthy(kBackends);

  // One keep-alive request; returns the serving backend ("" on error).
  // The reply state is shared: a late callback must not outlive it.
  struct Reply {
    std::atomic<bool> done{false};
    std::string served;
  };
  auto ask = [&](const std::shared_ptr<http::Client>& client) {
    auto reply = std::make_shared<Reply>();
    clientLoop.runSync([&] {
      http::Request req;
      req.path = "/who";
      client->request(req, [reply](http::Client::Result r) {
        if (r.ok) {
          reply->served = r.response.body;
        }
        reply->done.store(true);
      });
    });
    for (int i = 0; i < 3000 && !reply->done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return reply->done.load() ? reply->served : std::string();
  };
  // Opens flows until `count` are open and `want` backends are seen.
  auto openFlows = [&](size_t count, size_t want,
                       std::vector<std::shared_ptr<http::Client>>& clients,
                       std::vector<std::string>& backendOf) {
    std::set<std::string> seen;
    while ((clients.size() < count || seen.size() < want) &&
           clients.size() < 200) {
      std::shared_ptr<http::Client> client;
      clientLoop.runSync(
          [&] { client = http::Client::make(clientLoop.loop(), vip); });
      clients.push_back(client);
      backendOf.push_back(ask(client));
      seen.insert(backendOf.back());
    }
    return seen;
  };

  constexpr size_t kFlows = 24;
  std::vector<std::shared_ptr<http::Client>> live;
  std::vector<std::string> liveBackend;
  auto before = openFlows(kFlows, kBackends, live, liveBackend);
  ASSERT_EQ(before, (std::set<std::string>{"s0", "s1", "s2"}));

  // Flap: s1 stops accepting, so its probes fail and Maglev re-picks
  // every key that mapped to it. Its established connections still
  // serve, as in a momentary health blip.
  serverLoop.runSync([&] { servers[1]->startDrain(); });
  waitHealthy(kBackends - 1);

  size_t moved = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    if (ask(live[i]) != liveBackend[i]) {
      ++moved;
    }
  }
  EXPECT_EQ(moved, 0u);

  std::vector<std::shared_ptr<http::Client>> fresh;
  std::vector<std::string> freshBackend;
  auto after = openFlows(kFlows, kBackends - 1, fresh, freshBackend);
  EXPECT_EQ(after, (std::set<std::string>{"s0", "s2"}));

  clientLoop.runSync([&] {
    for (auto& c : live) {
      c->close();
    }
    for (auto& c : fresh) {
      c->close();
    }
  });
  lbLoop.runSync([&] { lb.reset(); });
  serverLoop.runSync([&] { servers.clear(); });
}

// Regression: every completed probe used to leave its timeout timer
// armed until probeTimeout expired. With a long timeout and a short
// interval that accumulates hundreds of live timers; a fixed checker
// cancels each verdict's timer, so the live count stays bounded by the
// interval timer plus the probes actually in flight.
TEST(HealthCheckerTest, CompletedProbesDoNotLeakTimeoutTimers) {
  EventLoopThread serverLoop("server");
  EventLoopThread hcLoop("hc");

  std::unique_ptr<appserver::AppServer> server;
  SocketAddr addr;
  serverLoop.runSync([&] {
    server = std::make_unique<appserver::AppServer>(
        serverLoop.loop(), SocketAddr::loopback(0),
        appserver::AppServer::Options{}, nullptr);
    addr = server->localAddr();
  });

  std::unique_ptr<HealthChecker> hc;
  hcLoop.runSync([&] {
    HealthChecker::Options opts;
    opts.interval = Duration{20};
    opts.probeTimeout = Duration{5000};  // leaked timers would linger
    hc = std::make_unique<HealthChecker>(
        hcLoop.loop(), std::vector<BackendTarget>{{"s", addr}}, opts,
        nullptr, nullptr);
  });

  // ~25 probe rounds against a healthy backend.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  size_t live = 0;
  hcLoop.runSync([&] { live = hcLoop.loop().activeTimerCount(); });
  // Interval timer + at most a few in-flight probes; the leak would
  // show ~25 armed 5-second timers here.
  EXPECT_LE(live, 5u);

  hcLoop.runSync([&] { hc.reset(); });
  serverLoop.runSync([&] { server.reset(); });
}

}  // namespace
}  // namespace zdr::l4lb
