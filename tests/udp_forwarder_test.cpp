// Katran-model UDP forwarding: consistent routing, NAT return path,
// flows pinned by their own record across backend changes, and reaping.
#include <atomic>
#include <gtest/gtest.h>
#include <set>

#include "l4lb/udp_forwarder.h"
#include "quicish/client.h"
#include "quicish/server.h"

namespace zdr::l4lb {
namespace {

void waitFor(const std::function<bool()>& pred, int ms = 3000) {
  for (int i = 0; i < ms && !pred(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pred());
}

class UdpForwarderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    loop_.runSync([&] {
      // Two quicish servers as backends.
      quicish::Server::Options so;
      so.instanceId = 1;
      so.numWorkers = 1;
      s1_ = std::make_unique<quicish::Server>(
          loop_.loop(), SocketAddr::loopback(0), so, nullptr);
      so.instanceId = 2;
      s2_ = std::make_unique<quicish::Server>(
          loop_.loop(), SocketAddr::loopback(0), so, nullptr);

      UdpForwarder::Options fo;
      fo.flowIdleTimeout = Duration{500};
      forwarder_ = std::make_unique<UdpForwarder>(
          loop_.loop(), SocketAddr::loopback(0),
          std::vector<UdpForwarder::Backend>{{"s1", s1_->vip()},
                                             {"s2", s2_->vip()}},
          fo, &metrics_);
      vip_ = forwarder_->vip();
    });
  }
  void TearDown() override {
    loop_.runSync([&] {
      flows_.clear();
      forwarder_.reset();
      s1_.reset();
      s2_.reset();
      s3_.reset();
    });
  }

  // Opens `n` flows with conn IDs from `firstId` and waits for each
  // one's first ack.
  void openFlows(size_t n, uint64_t firstId) {
    size_t begin = 0;
    loop_.runSync([&] {
      begin = flows_.size();
      for (size_t i = 0; i < n; ++i) {
        flows_.push_back(std::make_unique<quicish::ClientFlow>(
            loop_.loop(), vip_, firstId + i));
        flows_.back()->sendInitial();
      }
    });
    waitFor([&] {
      bool all = true;
      loop_.runSync([&] {
        for (size_t i = begin; i < flows_.size(); ++i) {
          all = all && flows_[i]->acks() >= 1;
        }
      });
      return all;
    });
  }

  EventLoopThread loop_;
  MetricsRegistry metrics_;
  std::unique_ptr<quicish::Server> s1_;
  std::unique_ptr<quicish::Server> s2_;
  std::unique_ptr<quicish::Server> s3_;  // joins in the flap test
  std::unique_ptr<UdpForwarder> forwarder_;
  std::vector<std::unique_ptr<quicish::ClientFlow>> flows_;
  SocketAddr vip_;
};

TEST_F(UdpForwarderTest, RoundTripThroughVip) {
  loop_.runSync([&] {
    flows_.push_back(
        std::make_unique<quicish::ClientFlow>(loop_.loop(), vip_, 0x11));
    flows_[0]->sendInitial();
  });
  waitFor([&] {
    uint64_t acks = 0;
    loop_.runSync([&] { acks = flows_[0]->acks(); });
    return acks >= 1;
  });
  loop_.runSync([&] {
    EXPECT_EQ(forwarder_->flowCount(), 1u);
    EXPECT_GE(forwarder_->forwarded(), 1u);
    EXPECT_GE(forwarder_->returned(), 1u);
  });
}

TEST_F(UdpForwarderTest, FlowsStickToOneBackend) {
  loop_.runSync([&] {
    flows_.push_back(
        std::make_unique<quicish::ClientFlow>(loop_.loop(), vip_, 0x22));
    flows_[0]->sendInitial();
  });
  waitFor([&] {
    uint64_t acks = 0;
    loop_.runSync([&] { acks = flows_[0]->acks(); });
    return acks >= 1;
  });
  uint32_t firstInstance = 0;
  loop_.runSync([&] { firstInstance = flows_[0]->lastAckInstance(); });

  for (int i = 0; i < 10; ++i) {
    loop_.runSync([&] { flows_[0]->sendData(); });
  }
  waitFor([&] {
    uint64_t acks = 0;
    loop_.runSync([&] { acks = flows_[0]->acks(); });
    return acks >= 11;
  });
  loop_.runSync([&] {
    // Every datagram of the flow reached the same backend: the flow's
    // state lives there, so zero resets.
    EXPECT_EQ(flows_[0]->lastAckInstance(), firstInstance);
    EXPECT_EQ(flows_[0]->resets(), 0u);
  });
}

TEST_F(UdpForwarderTest, ManyFlowsSpreadAcrossBackends) {
  constexpr size_t kFlows = 64;
  loop_.runSync([&] {
    for (size_t i = 0; i < kFlows; ++i) {
      flows_.push_back(std::make_unique<quicish::ClientFlow>(
          loop_.loop(), vip_, 0x100 + i));
      flows_.back()->sendInitial();
    }
  });
  waitFor([&] {
    uint64_t acks = 0;
    loop_.runSync([&] {
      acks = 0;
      for (auto& f : flows_) {
        acks += f->acks();
      }
    });
    return acks >= kFlows;
  });
  loop_.runSync([&] {
    EXPECT_GT(s1_->flowCount(), 0u);
    EXPECT_GT(s2_->flowCount(), 0u);
    EXPECT_EQ(s1_->flowCount() + s2_->flowCount(), kFlows);
  });
}

TEST_F(UdpForwarderTest, IdleFlowsReaped) {
  loop_.runSync([&] {
    flows_.push_back(
        std::make_unique<quicish::ClientFlow>(loop_.loop(), vip_, 0x33));
    flows_[0]->sendInitial();
  });
  waitFor([&] {
    size_t n = 0;
    loop_.runSync([&] { n = forwarder_->flowCount(); });
    return n == 1;
  });
  // flowIdleTimeout = 500ms; reap tick = 1s.
  waitFor(
      [&] {
        size_t n = 1;
        loop_.runSync([&] { n = forwarder_->flowCount(); });
        return n == 0;
      },
      4000);
}

TEST_F(UdpForwarderTest, NoBackendsDropsSilently) {
  loop_.runSync([&] { forwarder_->setBackends({}); });
  loop_.runSync([&] {
    flows_.push_back(
        std::make_unique<quicish::ClientFlow>(loop_.loop(), vip_, 0x44));
    flows_[0]->sendInitial();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  loop_.runSync([&] {
    EXPECT_EQ(flows_[0]->acks(), 0u);
    EXPECT_EQ(forwarder_->flowCount(), 0u);
  });
}

// §5.1 on the real path: a backend-set change rebuilds Maglev, yet
// every live flow's record keeps its backend. A re-routed flow would
// land on a server with no state for it and be reset. Flows opened
// after the change spread over the new set only.
TEST_F(UdpForwarderTest, SetBackendsNeverMovesLiveFlows) {
  constexpr size_t kFlows = 32;
  openFlows(kFlows, 0x200);
  std::vector<uint32_t> instanceOf;
  loop_.runSync([&] {
    for (auto& f : flows_) {
      instanceOf.push_back(f->lastAckInstance());
    }
  });
  ASSERT_EQ(std::set<uint32_t>(instanceOf.begin(), instanceOf.end()),
            (std::set<uint32_t>{1, 2}));

  // s2 leaves and s3 joins: every key that mapped to s2 re-picks.
  loop_.runSync([&] {
    quicish::Server::Options so;
    so.instanceId = 3;
    so.numWorkers = 1;
    s3_ = std::make_unique<quicish::Server>(
        loop_.loop(), SocketAddr::loopback(0), so, nullptr);
    forwarder_->setBackends({{"s1", s1_->vip()}, {"s3", s3_->vip()}});
  });

  constexpr uint64_t kRounds = 5;
  loop_.runSync([&] {
    for (uint64_t r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < kFlows; ++i) {
        flows_[i]->sendData();
      }
    }
  });
  waitFor([&] {
    bool all = true;
    loop_.runSync([&] {
      for (size_t i = 0; i < kFlows; ++i) {
        all = all && flows_[i]->acks() + flows_[i]->resets() >= 1 + kRounds;
      }
    });
    return all;
  });
  size_t moved = 0;
  loop_.runSync([&] {
    for (size_t i = 0; i < kFlows; ++i) {
      EXPECT_EQ(flows_[i]->resets(), 0u) << "flow " << i;
      if (flows_[i]->lastAckInstance() != instanceOf[i]) {
        ++moved;
      }
    }
  });
  EXPECT_EQ(moved, 0u);

  openFlows(kFlows, 0x300);
  std::set<uint32_t> fresh;
  loop_.runSync([&] {
    for (size_t i = kFlows; i < flows_.size(); ++i) {
      fresh.insert(flows_[i]->lastAckInstance());
    }
  });
  EXPECT_EQ(fresh, (std::set<uint32_t>{1, 3}));
}

}  // namespace
}  // namespace zdr::l4lb
