// Multi-worker SO_REUSEPORT serving path (§4.1): the kernel spreads
// SYNs across a ring of N listeners, each owned by one worker loop, and
// Socket Takeover hands the *entire ring* to the next instance — even
// when the next instance runs a different worker count (§5.1: an
// unserved ring member silently black-holes its share of connections).
#include <atomic>
#include <gtest/gtest.h>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/testbed.h"
#include "core/workload.h"
#include "netcore/connection.h"
#include "netcore/io_stats.h"
#include "netcore/listener_group.h"
#include "netcore/socket.h"

namespace zdr::core {
namespace {

bool waitFor(const std::function<bool()>& pred, int ms = 5000) {
  for (int i = 0; i < ms; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// ------------------------- ring binding ------------------------------

TEST(ListenerRingTest, BindTcpRingSharesOneKernelPort) {
  auto ring = bindTcpRing(SocketAddr::loopback(0), 4);
  ASSERT_EQ(ring.size(), 4u);
  uint16_t port = ring.front().localAddr().port();
  EXPECT_NE(port, 0);
  for (const auto& l : ring) {
    EXPECT_EQ(l.localAddr().port(), port);
    EXPECT_GE(l.fd(), 0);
  }
  // Distinct kernel sockets, not dups of one.
  for (size_t i = 0; i < ring.size(); ++i) {
    for (size_t j = i + 1; j < ring.size(); ++j) {
      EXPECT_NE(ring[i].fd(), ring[j].fd());
    }
  }
}

TEST(ListenerRingTest, PortZeroUdpRingsNeverShareAPort) {
  // A port-0 ring must own its port: were two rings in one process
  // handed the same one, two servers would silently split one VIP.
  constexpr size_t kRings = 48;
  std::vector<std::vector<UdpSocket>> rings;
  std::set<uint16_t> ports;
  for (size_t i = 0; i < kRings; ++i) {
    rings.push_back(bindUdpRing(SocketAddr::loopback(0), 2));
    uint16_t port = rings.back().front().localAddr().port();
    EXPECT_NE(port, 0);
    EXPECT_EQ(rings.back().back().localAddr().port(), port);
    ports.insert(port);
  }
  EXPECT_EQ(ports.size(), kRings);

  // The ring's first socket still joins the reuseport group: datagrams
  // from many flows all land somewhere in the ring.
  constexpr size_t kFlows = 16;
  const SocketAddr vip = rings.front().front().localAddr();
  const std::byte payload[4]{};
  for (size_t i = 0; i < kFlows; ++i) {
    UdpSocket sender(SocketAddr::loopback(0));
    std::error_code ec;
    sender.sendTo(payload, vip, ec);
    EXPECT_FALSE(ec);
  }
  size_t received = 0;
  ASSERT_TRUE(waitFor([&] {
    for (auto& sock : rings.front()) {
      std::byte buf[16];
      SocketAddr from;
      std::error_code ec;
      while (sock.recvFrom(buf, from, ec) > 0) {
        ++received;
      }
    }
    return received == kFlows;
  }));
}

// Harness: a ListenerGroup over `workers` loops and `ringSize` fds that
// counts accepts per worker.
struct RingHarness {
  explicit RingHarness(size_t workers, size_t ringSize)
      : pool(primary.loop(), workers, "ringtest") {
    primary.runSync([&] {
      group = std::make_unique<ListenerGroup>(
          pool, bindTcpRing(SocketAddr::loopback(0), ringSize),
          [this](size_t workerIdx, TcpSocket sock) {
            perWorker[workerIdx].fetch_add(1);
            total.fetch_add(1);
            std::lock_guard<std::mutex> lock(mutex);
            accepted.push_back(std::move(sock));
          });
    });
  }
  ~RingHarness() {
    primary.runSync([&] { group.reset(); });
  }

  // Opens `n` client connections and waits until every one is accepted.
  void connectClients(size_t n) {
    size_t before = total.load();
    for (size_t i = 0; i < n; ++i) {
      std::error_code ec;
      clients.push_back(TcpSocket::connect(group->localAddr(), ec));
      ASSERT_FALSE(ec);
    }
    EXPECT_TRUE(waitFor([&] { return total.load() >= before + n; }));
  }

  [[nodiscard]] size_t workersHit() const {
    size_t hit = 0;
    for (const auto& c : perWorker) {
      hit += c.load() > 0 ? 1 : 0;
    }
    return hit;
  }

  EventLoopThread primary;
  WorkerPool pool;
  std::unique_ptr<ListenerGroup> group;
  std::array<std::atomic<size_t>, 8> perWorker{};
  std::atomic<size_t> total{0};
  std::mutex mutex;
  std::vector<TcpSocket> accepted;
  std::vector<TcpSocket> clients;
};

TEST(ListenerRingTest, MatchedRingSpreadsAcceptsAcrossWorkers) {
  RingHarness h(4, 4);
  ASSERT_EQ(h.group->count(), 4u);
  h.connectClients(64);
  EXPECT_EQ(h.total.load(), 64u);
  // The kernel hashes 4-tuples across ring members; with 64 distinct
  // source ports, more than one worker must see traffic.
  EXPECT_GE(h.workersHit(), 2u);
}

TEST(ListenerRingTest, SurplusFdsStackOnEarlyWorkersNoBlackHole) {
  // 4 ring fds, 2 workers — the adoption case where the new instance
  // runs fewer workers than the old ring. Every fd must still be
  // served: the kernel keeps spreading SYNs across all 4 sockets.
  RingHarness h(2, 4);
  ASSERT_EQ(h.group->count(), 4u);
  h.connectClients(64);
  EXPECT_EQ(h.total.load(), 64u);
  // Only the two real workers exist to accept them.
  EXPECT_EQ(h.perWorker[2].load() + h.perWorker[3].load(), 0u);
}

TEST(ListenerRingTest, DeficitRingLeavesExtraWorkersAcceptless) {
  // 2 ring fds, 4 workers — the adoption case where the new instance
  // grew. Workers 2 and 3 own no listener; nothing is lost.
  RingHarness h(4, 2);
  ASSERT_EQ(h.group->count(), 2u);
  h.connectClients(32);
  EXPECT_EQ(h.total.load(), 32u);
  EXPECT_EQ(h.perWorker[2].load() + h.perWorker[3].load(), 0u);
}

TEST(ListenerRingTest, DetachedRingAdoptedByNewGroupKeepsAccepting) {
  // The takeover handoff at the ListenerGroup level: detachAll releases
  // the fds in ring order; a second group (the "new instance") adopts
  // them and the same kernel sockets keep accepting.
  RingHarness old(2, 2);
  old.connectClients(8);
  SocketAddr vip = old.group->localAddr();

  std::vector<FdGuard> handoff;
  old.primary.runSync([&] { handoff = old.group->detachAll(); });
  ASSERT_EQ(handoff.size(), 2u);

  RingHarness fresh(2, 2);  // unrelated ring; replace it with the adopted one
  fresh.primary.runSync([&] {
    fresh.group.reset();
    std::vector<TcpListener> adopted;
    for (auto& fd : handoff) {
      adopted.push_back(TcpListener::fromFd(std::move(fd)));
    }
    fresh.group = std::make_unique<ListenerGroup>(
        fresh.pool, std::move(adopted),
        [&fresh](size_t workerIdx, TcpSocket sock) {
          fresh.perWorker[workerIdx].fetch_add(1);
          fresh.total.fetch_add(1);
          std::lock_guard<std::mutex> lock(fresh.mutex);
          fresh.accepted.push_back(std::move(sock));
        });
  });
  EXPECT_EQ(fresh.group->localAddr().port(), vip.port());

  size_t oldTotal = old.total.load();
  for (size_t i = 0; i < 16; ++i) {
    std::error_code ec;
    fresh.clients.push_back(TcpSocket::connect(vip, ec));
    ASSERT_FALSE(ec);
  }
  EXPECT_TRUE(waitFor([&] { return fresh.total.load() >= 16; }));
  EXPECT_EQ(old.total.load(), oldTotal);  // old instance accepts nothing
}

// --------------------- Acceptor self-close hazard --------------------

TEST(AcceptorTest, DestroyingAcceptorFromItsOwnCallbackIsSafe) {
  // Regression: the accept loop drains the backlog in a `while` — if
  // the callback destroys the Acceptor (a proxy tearing down on its
  // last request), the next lap must not touch freed members.
  EventLoopThread t;
  std::unique_ptr<Acceptor> acceptor;
  std::atomic<int> accepts{0};
  TcpListener listener(SocketAddr::loopback(0));
  SocketAddr addr = listener.localAddr();

  // Queue several connections in the backlog *before* the acceptor
  // exists, so one readable event delivers a multi-accept burst.
  std::vector<TcpSocket> clients;
  for (int i = 0; i < 4; ++i) {
    std::error_code ec;
    clients.push_back(TcpSocket::connect(addr, ec));
    ASSERT_FALSE(ec);
  }

  t.runSync([&] {
    acceptor = std::make_unique<Acceptor>(
        t.loop(), std::move(listener), [&](TcpSocket /*sock*/) {
          accepts.fetch_add(1);
          acceptor.reset();  // suicide mid-burst
        });
  });

  EXPECT_TRUE(waitFor([&] { return accepts.load() >= 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.runSync([&] { EXPECT_EQ(acceptor, nullptr); });
  EXPECT_EQ(accepts.load(), 1);  // the burst stopped at the suicide
}

// ------------------------- gather-write delivery ---------------------

namespace {

struct Burst {
  std::string sent;      // the deterministic payload, in send order
  std::string received;  // what the peer read
};

// Sends `chunks` distinct segments from one loop task (so they queue
// and coalesce into gather-writes) and returns what went out and what
// the peer received.
Burst burstTransfer(size_t chunks, size_t chunkBytes) {
  EventLoopThread t;
  TcpListener listener(SocketAddr::loopback(0));
  SocketAddr addr = listener.localAddr();

  std::mutex m;
  std::string received;
  std::atomic<size_t> receivedBytes{0};

  std::unique_ptr<Acceptor> acceptor;
  std::vector<ConnectionPtr> serverConns;
  t.runSync([&] {
    acceptor = std::make_unique<Acceptor>(
        t.loop(), std::move(listener), [&](TcpSocket sock) {
          auto conn = Connection::make(t.loop(), std::move(sock));
          conn->setDataCallback([&, conn](Buffer& in) {
            std::lock_guard<std::mutex> lock(m);
            received += std::string(in.view());
            receivedBytes.store(received.size());
            in.clear();
          });
          conn->setCloseCallback([conn](std::error_code) {});
          conn->start();
          serverConns.push_back(conn);
        });
  });

  Burst burst;
  ConnectionPtr client;
  std::atomic<bool> connected{false};
  t.runSync([&] {
    Connector::connect(t.loop(), addr, [&](TcpSocket sock,
                                           std::error_code ec) {
      ASSERT_FALSE(ec);
      client = Connection::make(t.loop(), std::move(sock));
      client->setCloseCallback([](std::error_code) {});
      client->start();
      connected.store(true);
    });
  });
  EXPECT_TRUE(waitFor([&] { return connected.load(); }));

  t.runSync([&] {
    for (size_t i = 0; i < chunks; ++i) {
      std::string chunk(chunkBytes, static_cast<char>('a' + i % 26));
      chunk[0] = static_cast<char>('0' + i % 10);
      burst.sent += chunk;
      client->send(std::string_view(chunk));
    }
  });

  EXPECT_TRUE(
      waitFor([&] { return receivedBytes.load() >= chunks * chunkBytes; }));
  t.runSync([&] {
    if (client) {
      client->close({});
    }
    for (auto& c : serverConns) {
      c->close({});
    }
    serverConns.clear();
    acceptor.reset();
  });
  std::lock_guard<std::mutex> lock(m);
  burst.received = received;
  return burst;
}

}  // namespace

TEST(VectoredIoTest, GatherWriteDeliversBurstPayloadInOrder) {
  uint64_t writevBefore = ioStats().writevCalls.load();
  Burst burst = burstTransfer(100, 100);
  uint64_t writevDelta = ioStats().writevCalls.load() - writevBefore;

  EXPECT_EQ(burst.sent.size(), 100u * 100u);
  EXPECT_EQ(burst.received, burst.sent);  // every byte, in send order
  EXPECT_GT(writevDelta, 0u);             // and the burst used writev
}

// ------------------- sharded proxy end-to-end ------------------------

TEST(MultiWorkerE2E, FourWorkerEdgeServesConcurrentClients) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = 4;
  Testbed bed(opts);

  bed.edge(0).withActiveProxy([](proxygen::Proxy* p) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->shardCount(), 4u);
  });

  HttpLoadGen::Options lo;
  lo.concurrency = 16;
  lo.thinkTime = Duration{1};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= 300; }, 15000));
  load.stop();

  EXPECT_EQ(bed.metrics().counter("load.err_http").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_transport").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_timeout").value(), 0u);
}

TEST(MultiWorkerE2E, ZdrRestartAtFourWorkersHandsFullRingInvisibly) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = 4;
  opts.proxyDrainPeriod = Duration{400};
  Testbed bed(opts);

  HttpLoadGen::Options lo;
  lo.concurrency = 8;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= 50; }));

  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.edge(0).waitRestart();

  uint64_t after = load.completed();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= after + 50; }, 10000));
  load.stop();

  // Invisibility: nothing a client could observe.
  EXPECT_EQ(bed.metrics().counter("load.err_http").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_timeout").value(), 0u);
  // The whole 4-fd ring moved, matched the new worker count exactly.
  EXPECT_EQ(bed.metrics().counter("edge0.ring_adopted_fds").value(), 4u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_fd_surplus").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_idle_workers").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("edge0.zdr_restarts").value(), 1u);
}

TEST(MultiWorkerE2E, ZdrRestartIntoFewerWorkersStacksSurplusFds) {
  // Old instance: 4 workers → 4-fd ring. New instance: 2 workers. The
  // extra fds stack on the early loops (§5.1: never orphan a ring
  // member) and service continues whole.
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = 4;
  opts.proxyDrainPeriod = Duration{400};
  Testbed bed(opts);

  HttpLoadGen::Options lo;
  lo.concurrency = 8;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= 50; }));

  bed.edge(0).updateConfig(
      [](proxygen::Proxy::Config& cfg) { cfg.httpWorkers = 2; });
  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.edge(0).waitRestart();

  uint64_t after = load.completed();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= after + 50; }, 10000));
  load.stop();

  EXPECT_EQ(bed.metrics().counter("load.err_http").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_timeout").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_adopted_fds").value(), 4u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_fd_surplus").value(), 2u);
  bed.edge(0).withActiveProxy([](proxygen::Proxy* p) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->shardCount(), 2u);
  });
}

TEST(MultiWorkerE2E, ZdrRestartIntoMoreWorkersLeavesNewOnesIdle) {
  // Old instance: 2 workers → 2-fd ring. New instance: 4 workers. Two
  // workers get no listener (the ring is the kernel's routing table and
  // must not change size mid-takeover); no connection is lost.
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = 2;
  opts.proxyDrainPeriod = Duration{400};
  Testbed bed(opts);

  HttpLoadGen::Options lo;
  lo.concurrency = 8;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= 50; }));

  bed.edge(0).updateConfig(
      [](proxygen::Proxy::Config& cfg) { cfg.httpWorkers = 4; });
  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.edge(0).waitRestart();

  uint64_t after = load.completed();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= after + 50; }, 10000));
  load.stop();

  EXPECT_EQ(bed.metrics().counter("load.err_http").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_timeout").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_adopted_fds").value(), 2u);
  EXPECT_EQ(bed.metrics().counter("edge0.ring_idle_workers").value(), 2u);
}

TEST(MultiWorkerE2E, OriginTrunkRingSurvivesZdrRestart) {
  // The origin side of the same story: its trunk listener ring moves
  // across a restart while edges keep multiplexing requests onto the
  // surviving trunks. Two origins, as in the single-worker invisibility
  // test: a draining origin GOAWAYs its trunks and the edge routes
  // around it until the adopted ring answers.
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 2;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.httpWorkers = 2;
  opts.trunkWorkers = 2;
  opts.proxyDrainPeriod = Duration{400};
  Testbed bed(opts);

  HttpLoadGen::Options lo;
  lo.concurrency = 8;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= 50; }));

  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();

  uint64_t after = load.completed();
  EXPECT_TRUE(waitFor([&] { return load.completed() >= after + 50; }, 10000));
  load.stop();

  EXPECT_EQ(bed.metrics().counter("load.err_http").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("load.err_timeout").value(), 0u);
  EXPECT_EQ(bed.metrics().counter("origin0.ring_adopted_fds").value(), 2u);
}

}  // namespace
}  // namespace zdr::core
