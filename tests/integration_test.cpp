// Cross-module integration: QUIC VIP takeover through the testbed,
// L4-fronted clusters, and full rolling releases under load.
#include <atomic>
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "core/workload.h"

namespace zdr::core {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 8000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

TEST(IntegrationTest, QuicFlowsSurviveEdgeZdrRestart) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.enableQuic = true;
  opts.udpUserSpaceRouting = true;
  opts.proxyDrainPeriod = Duration{600};
  Testbed bed(opts);

  SocketAddr quicVip = bed.edge(0).quicVip();
  ASSERT_GT(quicVip.port(), 0);

  QuicFlowGen::Options qo;
  qo.flows = 16;
  qo.sendInterval = Duration{5};
  QuicFlowGen flows(quicVip, qo, bed.metrics(), "quic");
  flows.start();
  waitFor([&] { return flows.totalAcks() >= 16 * 5; });

  // During the drain, established flows are served by the draining
  // instance via conn-ID user-space routing: acks continue, zero
  // stateless resets (§4.1, Fig 10). (Once the drain period ends the
  // old process exits and surviving flows reset organically — the
  // paper sizes the drain to outlive QUIC connection lifetimes.)
  uint64_t resetsBefore = flows.totalResets();
  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  uint64_t acksMark = flows.totalAcks();
  waitFor([&] { return flows.totalAcks() >= acksMark + 16 * 3; }, 3000);
  EXPECT_EQ(flows.totalResets(), resetsBefore);
  flows.stop();
  bed.edge(0).waitRestart();
}

TEST(IntegrationTest, QuicFlowsResetWithoutUserSpaceRouting) {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.enableQuic = true;
  opts.udpUserSpaceRouting = false;  // the Fig 10 "traditional" mode
  opts.proxyDrainPeriod = Duration{600};
  Testbed bed(opts);

  QuicFlowGen::Options qo;
  qo.flows = 16;
  QuicFlowGen flows(bed.edge(0).quicVip(), qo, bed.metrics(), "quic");
  flows.start();
  waitFor([&] { return flows.totalAcks() >= 16 * 3; });

  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.edge(0).waitRestart();
  // Established flows now land on the updated instance, which has no
  // state for them and answers with stateless resets.
  waitFor([&] { return flows.totalResets() > 0; });
  flows.stop();
}

TEST(IntegrationTest, L4FrontedClusterRoutesAndFailsOver) {
  TestbedOptions opts;
  opts.edges = 2;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.enableL4 = true;
  opts.proxyDrainPeriod = Duration{300};
  opts.l4Options.health.interval = Duration{50};
  opts.l4Options.health.failThreshold = 2;
  Testbed bed(opts);

  HttpLoadGen::Options lo;
  lo.concurrency = 4;
  lo.thinkTime = Duration{2};
  lo.timeout = Duration{1500};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  waitFor([&] { return load.completed() >= 50; });

  // Hard-drain edge0: it fails L4 health checks and is pulled from the
  // ring while edge1 absorbs the traffic.
  bed.edge(0).beginRestart(release::Strategy::kHardRestart);
  bed.edge(0).waitRestart();
  uint64_t mark = load.completed();
  waitFor([&] { return load.completed() >= mark + 50; });
  load.stop();

  // Traffic reached both edges over the experiment.
  EXPECT_GT(bed.metrics().counter("edge0.requests").value(), 0u);
  EXPECT_GT(bed.metrics().counter("edge1.requests").value(), 0u);
  EXPECT_GE(bed.metrics().counter("l4.hc_transitions").value(), 1u);
}

TEST(IntegrationTest, QuicThroughL4UdpForwarderSurvivesZdrRestart) {
  // Full UDP datapath: client → Katran-model UdpForwarder → edge QUIC
  // VIP, then a Socket Takeover release of the edge. Flows must keep
  // flowing through the drain with zero resets.
  TestbedOptions opts;
  opts.edges = 2;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.enableQuic = true;
  opts.proxyDrainPeriod = Duration{600};
  Testbed bed(opts);

  L4Host l4("l4udp", &bed.metrics());
  l4lb::UdpForwarder::Options fo;
  SocketAddr vip = l4.addUdpVip(
      "quic",
      {{"edge0", bed.edge(0).quicVip()}, {"edge1", bed.edge(1).quicVip()}},
      fo);

  QuicFlowGen::Options qo;
  qo.flows = 24;
  qo.sendInterval = Duration{5};
  QuicFlowGen flows(vip, qo, bed.metrics(), "quic");
  flows.start();
  waitFor([&] { return flows.totalAcks() >= 24 * 4; });
  EXPECT_EQ(flows.totalResets(), 0u);

  // Release edge0; its flows (pinned by their forwarder records) ride
  // the draining instance via user-space routing.
  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  uint64_t mark = flows.totalAcks();
  waitFor([&] { return flows.totalAcks() >= mark + 24 * 3; }, 3000);
  EXPECT_EQ(flows.totalResets(), 0u);

  // Past the drain the updated instance has adopted the retired one's
  // flows: every flow keeps being acked, none is black-holed or reset.
  bed.edge(0).waitRestart();
  uint64_t slowest = flows.minFlowAcks();
  waitFor([&] { return flows.minFlowAcks() >= slowest + 3; }, 3000);
  EXPECT_EQ(flows.totalResets(), 0u);
  flows.stop();
}

TEST(IntegrationTest, MqttThroughL4VipReachesBroker) {
  // Fig 1's MQTT path: user → L4 → edge → trunk → origin → broker. The
  // edges' MQTT ports speak no HTTP, so the MQTT VIP must probe them
  // with a TCP connect; otherwise no backend is ever healthy and L4
  // drops every MQTT connection.
  TestbedOptions opts;
  opts.edges = 2;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = true;
  opts.enableL4 = true;
  opts.l4Options.health.interval = Duration{50};
  Testbed bed(opts);

  MqttFleet::Options fo;
  fo.clients = 4;
  MqttFleet fleet(bed.mqttEntry(), fo, bed.metrics(), "fleet");
  fleet.start();
  waitFor([&] { return fleet.connectedCount() == 4; });

  MqttPublisher::Options po;
  po.fleetSize = 4;
  MqttPublisher publisher(bed.broker(0).addr(), po, bed.metrics(), "pub");
  publisher.start();
  waitFor([&] { return fleet.publishesReceived() >= 20; });
  publisher.stop();
  fleet.stop();
}

TEST(IntegrationTest, L4StaysBlindToZdrRestart) {
  // §4.1 "View from L4 as L7 restarts": the health-check table must not
  // change at all during a Socket Takeover release.
  TestbedOptions opts;
  opts.edges = 2;
  opts.origins = 1;
  opts.appServers = 1;
  opts.enableMqtt = false;
  opts.enableL4 = true;
  opts.proxyDrainPeriod = Duration{400};
  opts.l4Options.health.interval = Duration{50};
  Testbed bed(opts);

  // Let health checks settle to all-up.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  uint64_t transitionsBefore =
      bed.metrics().counter("l4.hc_transitions").value();

  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.edge(0).waitRestart();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Zero transitions: the updated instance answered every probe.
  EXPECT_EQ(bed.metrics().counter("l4.hc_transitions").value(),
            transitionsBefore);

  // And traffic through the L4 VIP still works.
  EventLoopThread clientLoop("client");
  std::atomic<bool> done{false};
  int status = 0;
  std::shared_ptr<http::Client> client;
  clientLoop.runSync([&] {
    client = http::Client::make(clientLoop.loop(), bed.httpEntry());
    http::Request req;
    req.path = "/api/after";
    client->request(req, [&](http::Client::Result r) {
      status = r.response.status;
      done.store(true);
    });
  });
  waitFor([&] { return done.load(); });
  EXPECT_EQ(status, 200);
  clientLoop.runSync([&] { client->close(); });
}

TEST(IntegrationTest, RollingZdrReleaseOfEdgeTierUnderLoad) {
  TestbedOptions opts;
  opts.edges = 4;
  opts.origins = 2;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.proxyDrainPeriod = Duration{300};
  Testbed bed(opts);

  std::vector<std::unique_ptr<HttpLoadGen>> loads;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    HttpLoadGen::Options lo;
    lo.concurrency = 2;
    lo.thinkTime = Duration{2};
    loads.push_back(std::make_unique<HttpLoadGen>(
        bed.httpEntry(e), lo, bed.metrics(), "load" + std::to_string(e)));
    loads.back()->start();
  }
  waitFor([&] {
    uint64_t total = 0;
    for (auto& l : loads) {
      total += l->completed();
    }
    return total >= 200;
  });

  release::RollingReleaseOptions ro;
  ro.strategy = release::Strategy::kZeroDowntime;
  ro.batchFraction = 0.25;  // 4 batches of 1
  auto report = release::runRollingRelease(bed.edgeHosts(), ro);
  EXPECT_EQ(report.batches, 4u);
  EXPECT_FALSE(report.timedOut);

  for (auto& l : loads) {
    l->stop();
  }
  uint64_t errors = 0;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    errors += bed.metrics()
                  .counter("load" + std::to_string(e) + ".err_http")
                  .value();
    errors += bed.metrics()
                  .counter("load" + std::to_string(e) + ".err_timeout")
                  .value();
  }
  EXPECT_EQ(errors, 0u);  // the whole tier restarted invisibly
  uint64_t restarts = 0;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    restarts += bed.metrics()
                    .counter("edge" + std::to_string(e) + ".zdr_restarts")
                    .value();
  }
  EXPECT_EQ(restarts, 4u);
}

// One client issuing requests back-to-back on its keep-alive
// connection: each completion issues the next, the way a queued
// upload stream does, so one request starts as the previous one ends.
// pause() lets the in-flight request finish and leaves the connection
// idle. All client state lives on `loop`.
class BackToBackStream {
 public:
  BackToBackStream(EventLoopThread& loop, const SocketAddr& entry, bool upload)
      : loop_(loop), upload_(upload) {
    loop_.runSync(
        [&] { client_ = http::Client::make(loop_.loop(), entry); });
  }
  ~BackToBackStream() {
    pause();
    waitIdle();
    loop_.runSync([&] { client_->close(); });
  }

  void resume() {
    loop_.runSync([&] {
      running_ = true;
      if (!client_->busy()) {
        issue();
      }
    });
  }
  void pause() {
    loop_.runSync([&] { running_ = false; });
  }
  void waitIdle() {
    for (int i = 0; i < 5000; ++i) {
      bool busy = true;
      loop_.runSync([&] { busy = client_->busy(); });
      if (!busy) {
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ADD_FAILURE() << "stream never went idle";
  }

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> failed{0};

 private:
  void issue() {
    auto done = [this](http::Client::Result r) {
      (r.ok ? ok : failed).fetch_add(1);
      if (running_) {
        issue();
      }
    };
    if (upload_) {
      // 8 chunks × 25 ms: ~200 ms per upload, well inside the drain.
      client_->pacedPost("/upload/" + std::to_string(seq_++), 8, 1024,
                         Duration{25}, done, Duration{5000});
    } else {
      http::Request req;
      req.path = "/api/" + std::to_string(seq_++);
      client_->request(req, done, Duration{5000});
    }
  }

  EventLoopThread& loop_;
  bool upload_;
  bool running_ = false;
  uint64_t seq_ = 0;
  std::shared_ptr<http::Client> client_;
};

TEST(IntegrationTest, UploadsStraddlingEdgeZdrRestartAllComplete) {
  // Paced uploads through the L4 VIP while the edge serving them
  // ZDR-restarts. One upload stream is mid-upload when the drain
  // starts: its response carries Connection: close, and the upload
  // queued behind it must go out on a fresh connection (to the updated
  // instance), not on the one the old instance is closing. A second
  // upload stream and a GET stream sit idle on keep-alive connections
  // across the drain start: the draining edge must close those at
  // once, so their next requests also land on the updated instance
  // instead of starting on the old one. The old instance then has no
  // connection left and its drain exits early.
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.enableL4 = true;
  Testbed bed(opts);
  bed.waitForTrunks();

  EventLoopThread clientLoop("client");
  BackToBackStream busyUploads(clientLoop, bed.httpEntry(), true);
  BackToBackStream idleUploads(clientLoop, bed.httpEntry(), true);
  BackToBackStream gets(clientLoop, bed.httpEntry(), false);
  busyUploads.resume();
  idleUploads.resume();
  gets.resume();
  waitFor([&] { return idleUploads.ok.load() >= 2 && gets.ok.load() >= 20; });

  idleUploads.pause();
  gets.pause();
  idleUploads.waitIdle();
  gets.waitIdle();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  auto& drainStarted = bed.metrics().counter("edge0.zdr_drain_started");
  bed.edge(0).beginRestart(release::Strategy::kZeroDowntime);
  waitFor([&] { return drainStarted.value() >= 1; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  idleUploads.resume();
  gets.resume();
  bed.edge(0).waitRestart();

  const uint64_t uploadsAtRestart = busyUploads.ok.load() + idleUploads.ok.load();
  waitFor([&] {
    return busyUploads.ok.load() + idleUploads.ok.load() >=
           uploadsAtRestart + 4;
  });
  busyUploads.pause();
  idleUploads.pause();
  gets.pause();
  busyUploads.waitIdle();
  idleUploads.waitIdle();
  gets.waitIdle();

  EXPECT_EQ(busyUploads.failed.load(), 0u);
  EXPECT_EQ(idleUploads.failed.load(), 0u);
  EXPECT_EQ(gets.failed.load(), 0u);
  EXPECT_GE(bed.metrics().counter("edge0.drain_idle_closed").value(), 2u);
  EXPECT_EQ(bed.metrics().counter("edge0.drain_early_exit").value(), 1u);
  EXPECT_EQ(bed.metrics().counter("edge0.drain_deadline_exceeded").value(),
            0u);
}

TEST(IntegrationTest, RollingHardReleaseCompletesButDisrupts) {
  TestbedOptions opts;
  opts.edges = 3;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.proxyDrainPeriod = Duration{200};
  Testbed bed(opts);

  std::vector<std::unique_ptr<HttpLoadGen>> loads;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    HttpLoadGen::Options lo;
    lo.concurrency = 2;
    lo.thinkTime = Duration{2};
    lo.timeout = Duration{1000};
    loads.push_back(std::make_unique<HttpLoadGen>(
        bed.httpEntry(e), lo, bed.metrics(), "load" + std::to_string(e)));
    loads.back()->start();
  }
  waitFor([&] { return loads[0]->completed() >= 30; });

  release::RollingReleaseOptions ro;
  ro.strategy = release::Strategy::kHardRestart;
  ro.batchFraction = 0.34;
  auto report = release::runRollingRelease(bed.edgeHosts(), ro);
  EXPECT_FALSE(report.timedOut);
  for (auto& l : loads) {
    l->stop();
  }
  uint64_t failures = 0;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    for (const char* kind : {".err_http", ".err_timeout", ".err_transport"}) {
      failures += bed.metrics()
                      .counter("load" + std::to_string(e) + kind)
                      .value();
    }
  }
  EXPECT_GE(failures, 1u);  // hard restarts leak to clients
}

}  // namespace
}  // namespace zdr::core
