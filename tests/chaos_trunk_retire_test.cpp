// Edge→origin trunk retirement across an origin ZDR restart (RFC 9113
// §6.8 graceful shutdown). On GOAWAY the edge moves the link out of
// its slot, dials a fresh trunk to the updated origin instance, and
// closes the retired link once its last stream has ended. The
// draining origin then has no trunk left and ends its drain early.
//
// Every case runs a single origin: there is no second origin to route
// around a draining one, so any request the retirement mishandles
// surfaces as a client error. The retired link is destroyed while raw
// pointers and session callbacks still name it, which is why this
// binary runs first under ASan in CI.
#include <atomic>
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "core/workload.h"
#include "http/client.h"
#include "netcore/fault_injection.h"

namespace zdr::core {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 10000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

uint64_t count(Testbed& bed, const std::string& name) {
  return bed.metrics().counter(name).value();
}

uint64_t loadFailures(Testbed& bed, const std::string& prefix) {
  return count(bed, prefix + ".err_http") +
         count(bed, prefix + ".err_timeout") +
         count(bed, prefix + ".err_transport");
}

TestbedOptions oneOrigin() {
  TestbedOptions opts;
  opts.edges = 1;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  return opts;
}

// One chunked POST paced over `chunks` × 25 ms, so it is still on the
// trunk when the origin restarts under it.
class PacedPost {
 public:
  PacedPost(EventLoopThread& loop, const SocketAddr& entry, size_t chunks)
      : loop_(loop) {
    loop_.runSync([&] {
      client_ = http::Client::make(loop_.loop(), entry);
      client_->pacedPost("/upload/straddle", chunks, 1024, Duration{25},
                         [this](http::Client::Result r) {
                           const bool answered =
                               !r.timedOut && !r.transportError;
                           status_.store(answered ? r.response.status : -1);
                           done_.store(true);
                         });
    });
  }
  ~PacedPost() {
    loop_.runSync([this] { client_->close(); });
  }
  [[nodiscard]] bool done() const { return done_.load(); }
  [[nodiscard]] int status() const { return status_.load(); }

 private:
  EventLoopThread& loop_;
  std::shared_ptr<http::Client> client_;
  std::atomic<bool> done_{false};
  std::atomic<int> status_{0};
};

TEST(TrunkRetireTest, OneOriginServesGetsAcrossOriginZdrRestart) {
  TestbedOptions opts = oneOrigin();
  opts.enableL4 = true;
  Testbed bed(opts);
  bed.waitForTrunks();

  HttpLoadGen::Options lo;
  lo.concurrency = 4;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  waitFor([&] { return load.completed() >= 50; });

  const uint64_t l4Flips = count(bed, "l4.hc_transitions");
  const uint64_t appFlips = count(bed, "origin0.app_hc_transitions");
  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();
  const uint64_t after = load.completed();
  waitFor([&] { return load.completed() >= after + 50; });
  load.stop();

  EXPECT_EQ(count(bed, "load.err_http"), 0u);
  EXPECT_EQ(count(bed, "load.err_timeout"), 0u);
  EXPECT_EQ(count(bed, "load.err_transport"), 0u);
  // The edge closed the GOAWAY'd trunk once idle, so the old origin
  // instance had nothing left to wait for.
  EXPECT_EQ(count(bed, "origin0.drain_early_exit"), 1u);
  EXPECT_EQ(count(bed, "origin0.drain_deadline_exceeded"), 0u);
  EXPECT_GE(count(bed, "edge.trunk_goaway_received"), 1u);
  // The L4 never saw the origin restart. The updated instance's own
  // app-server checker came up, and counts under its own name.
  EXPECT_EQ(count(bed, "l4.hc_transitions"), l4Flips);
  EXPECT_GT(count(bed, "origin0.app_hc_transitions"), appFlips);
}

TEST(TrunkRetireTest, InFlightRequestFinishesOnRetiredTrunk) {
  TestbedOptions opts = oneOrigin();
  // A deadline far past the upload: only an early exit ends the drain
  // in time.
  opts.proxyDrainPeriod = Duration{3000};
  Testbed bed(opts);
  bed.waitForTrunks();

  EventLoopThread clientLoop("client");
  PacedPost post(clientLoop, bed.httpEntry(), 16);  // ~400 ms of body
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_FALSE(post.done());

  const auto start = Clock::now();
  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();
  const auto restartMs = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - start);

  // The upload finished on the retired trunk, and its end let the old
  // origin instance go long before its deadline.
  ASSERT_TRUE(post.done());
  EXPECT_EQ(post.status(), 200);
  EXPECT_EQ(count(bed, "origin0.drain_early_exit"), 1u);
  EXPECT_EQ(count(bed, "origin0.drain_deadline_exceeded"), 0u);
  EXPECT_LT(restartMs.count(), 2000);

  // New requests ride the fresh trunk to the updated instance.
  HttpLoadGen::Options lo;
  lo.concurrency = 2;
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  waitFor([&] { return load.completed() >= 20; });
  load.stop();
  EXPECT_EQ(loadFailures(bed, "load"), 0u);
}

TEST(TrunkRetireTest, ResponseBeforeBodyEndDoesNotHoldRetiredTrunk) {
  // With PPR off, a draining app server answers an unfinished upload
  // with 500. The response overtakes the request body, and the edge
  // must end the trunk stream itself; a half-open stream would keep the
  // retired trunk, and so the old origin instance, up to its deadline.
  TestbedOptions opts = oneOrigin();
  opts.appServers = 1;
  opts.pprEnabled = false;
  opts.appDrainPeriod = Duration{150};
  opts.proxyDrainPeriod = Duration{3000};
  Testbed bed(opts);
  bed.waitForTrunks();

  EventLoopThread clientLoop("client");
  {
    PacedPost post(clientLoop, bed.httpEntry(), 40);  // ~1 s of body
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    bed.app(0).beginRestart(release::Strategy::kZeroDowntime);
    waitFor([&] { return post.done(); });
    bed.app(0).waitRestart();
    EXPECT_EQ(post.status(), 500);  // the failure PPR exists to prevent
  }

  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();
  EXPECT_EQ(count(bed, "origin0.drain_early_exit"), 1u);
  EXPECT_EQ(count(bed, "origin0.drain_deadline_exceeded"), 0u);
}

TEST(TrunkRetireTest, DcrMovesTunnelsWithOneOrigin) {
  // The first reconnect_solicitation arrives while the fresh trunk is
  // still dialing, so it finds no alternative; a re-sent one finds the
  // fresh trunk up and resumes every tunnel onto the updated instance.
  TestbedOptions opts = oneOrigin();
  opts.appServers = 1;
  opts.enableMqtt = true;
  opts.dcrEnabled = true;
  Testbed bed(opts);
  bed.waitForTrunks();

  MqttFleet::Options fo;
  fo.clients = 5;
  MqttFleet fleet(bed.mqttEntry(), fo, bed.metrics(), "fleet");
  fleet.start();
  waitFor([&] { return fleet.connectedCount() == 5; });

  MqttPublisher::Options po;
  po.fleetSize = 5;
  po.interval = Duration{5};
  MqttPublisher publisher(bed.broker(0).addr(), po, bed.metrics(), "pub");
  publisher.start();
  waitFor([&] { return fleet.publishesReceived() >= 20; });

  const uint64_t drops = count(bed, "fleet.drops");
  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();
  const uint64_t received = fleet.publishesReceived();
  waitFor([&] { return fleet.publishesReceived() >= received + 20; });
  publisher.stop();

  EXPECT_EQ(count(bed, "fleet.drops"), drops);
  EXPECT_EQ(fleet.connectedCount(), 5u);
  EXPECT_GE(count(bed, "edge.dcr_resumed"), 1u);
  EXPECT_EQ(count(bed, "origin0.drain_early_exit"), 1u);
  fleet.stop();
}

TEST(TrunkRetireTest, SeveredFreshTrunkRedialsWhileRetiredOneFinishes) {
  // Chaos mode must be live while the testbed builds so trunk fds get
  // their tags bound.
  fault::ScopedChaosMode chaos;
  TestbedOptions opts = oneOrigin();
  opts.proxyDrainPeriod = Duration{3000};
  Testbed bed(opts);
  bed.waitForTrunks();

  HttpLoadGen::Options lo;
  lo.concurrency = 4;
  lo.thinkTime = Duration{2};
  HttpLoadGen load(bed.httpEntry(), lo, bed.metrics(), "load");
  load.start();
  waitFor([&] { return load.completed() >= 50; });

  EventLoopThread clientLoop("client");
  PacedPost post(clientLoop, bed.httpEntry(), 16);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_FALSE(post.done());

  // The first write on the trunk dialed to replace the GOAWAY'd one
  // fails: the fresh trunk dies during the retirement window and its
  // slot takes the 200 ms re-dial path. The GET it carried is
  // re-dispatched once the slot is back.
  fault::FaultSpec spec;
  spec.errProb = 1.0;
  spec.errOp = fault::Op::kWrite;
  spec.errBudget = 1;
  fault::FaultRegistry::instance().armTag("trunk.edge.redial", spec);
  const uint64_t established = count(bed, "edge.trunk_established");

  bed.origin(0).beginRestart(release::Strategy::kZeroDowntime);
  bed.origin(0).waitRestart();
  const uint64_t after = load.completed();
  waitFor([&] { return load.completed() >= after + 50; });
  load.stop();

  EXPECT_EQ(fault::FaultRegistry::instance().stats().errnosInjected, 1u);
  // Fresh trunk, then its re-dial after the sever.
  EXPECT_GE(count(bed, "edge.trunk_established"), established + 2);
  // The retired trunk still carried the upload to its end.
  ASSERT_TRUE(post.done());
  EXPECT_EQ(post.status(), 200);
  EXPECT_EQ(count(bed, "origin0.drain_early_exit"), 1u);
  // Nothing was sent on a GOAWAY'd link: the edge never picked one, so
  // no request failed for want of a stream.
  EXPECT_EQ(count(bed, "edge.err.no_origin"), 0u);
  // A re-dispatch is budget-gated. A GET that found the budget spent
  // is the only failure allowed, and it is reported as such.
  const uint64_t budgetSpent = count(bed, "shard.retry_budget_exhausted");
  EXPECT_LE(loadFailures(bed, "load"), budgetSpent)
      << budgetSpent << " GET(s) failed with the edge's retry budget spent";
  EXPECT_EQ(count(bed, "load.err_timeout"), 0u);
}

}  // namespace
}  // namespace zdr::core
