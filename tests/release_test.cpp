// Rolling-release controller semantics over instrumented fake hosts.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "release/release.h"

namespace zdr::release {
namespace {

class FakeHost : public RestartableHost {
 public:
  FakeHost(std::string name, std::chrono::milliseconds duration)
      : name_(std::move(name)), duration_(duration) {}
  ~FakeHost() override {
    if (worker_.joinable()) {
      worker_.join();
    }
  }

  [[nodiscard]] std::string hostName() const override { return name_; }

  void beginRestart(Strategy strategy) override {
    lastStrategy_ = strategy;
    inProgress_.store(true);
    startOrder.fetch_add(1);
    myStart_ = startOrder.load();
    if (worker_.joinable()) {
      worker_.join();
    }
    worker_ = std::thread([this] {
      std::this_thread::sleep_for(duration_);
      ++restarts_;
      inProgress_.store(false);
    });
  }

  [[nodiscard]] bool restartComplete() const override {
    return !inProgress_.load();
  }

  [[nodiscard]] int restarts() const { return restarts_; }
  [[nodiscard]] Strategy lastStrategy() const { return lastStrategy_; }
  [[nodiscard]] int myStart() const { return myStart_; }

  static inline std::atomic<int> startOrder{0};

 private:
  std::string name_;
  std::chrono::milliseconds duration_;
  std::thread worker_;
  std::atomic<bool> inProgress_{false};
  std::atomic<int> restarts_{0};
  Strategy lastStrategy_ = Strategy::kHardRestart;
  int myStart_ = 0;
};

// Accepts a restart and never completes it.
class StuckHost : public RestartableHost {
 public:
  explicit StuckHost(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] std::string hostName() const override { return name_; }
  void beginRestart(Strategy) override {}
  [[nodiscard]] bool restartComplete() const override { return false; }

 private:
  std::string name_;
};

TEST(RollingReleaseTest, RestartsEveryHostOnce) {
  std::vector<std::unique_ptr<FakeHost>> owned;
  std::vector<RestartableHost*> hosts;
  for (int i = 0; i < 10; ++i) {
    owned.push_back(std::make_unique<FakeHost>(
        "h" + std::to_string(i), std::chrono::milliseconds(20)));
    hosts.push_back(owned.back().get());
  }
  RollingReleaseOptions opts;
  opts.batchFraction = 0.2;
  auto report = runRollingRelease(hosts, opts);
  EXPECT_EQ(report.hosts, 10u);
  EXPECT_EQ(report.batches, 5u);
  EXPECT_FALSE(report.timedOut);
  for (auto& h : owned) {
    EXPECT_EQ(h->restarts(), 1);
  }
}

TEST(RollingReleaseTest, PassesStrategyThrough) {
  FakeHost host("h", std::chrono::milliseconds(5));
  RollingReleaseOptions opts;
  opts.strategy = Strategy::kZeroDowntime;
  opts.batchFraction = 1.0;
  runRollingRelease({&host}, opts);
  EXPECT_EQ(host.lastStrategy(), Strategy::kZeroDowntime);
}

TEST(RollingReleaseTest, BatchesAreSequential) {
  FakeHost::startOrder.store(0);
  std::vector<std::unique_ptr<FakeHost>> owned;
  std::vector<RestartableHost*> hosts;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<FakeHost>(
        "h" + std::to_string(i), std::chrono::milliseconds(30)));
    hosts.push_back(owned.back().get());
  }
  RollingReleaseOptions opts;
  opts.batchFraction = 0.5;  // two batches of two
  runRollingRelease(hosts, opts);
  // Hosts 0,1 started (orders 1,2) strictly before hosts 2,3 (3,4).
  EXPECT_LE(std::max(owned[0]->myStart(), owned[1]->myStart()), 2);
  EXPECT_GE(std::min(owned[2]->myStart(), owned[3]->myStart()), 3);
}

TEST(RollingReleaseTest, FractionRoundsUpToAtLeastOne) {
  std::vector<std::unique_ptr<FakeHost>> owned;
  std::vector<RestartableHost*> hosts;
  for (int i = 0; i < 3; ++i) {
    owned.push_back(std::make_unique<FakeHost>(
        "h" + std::to_string(i), std::chrono::milliseconds(1)));
    hosts.push_back(owned.back().get());
  }
  RollingReleaseOptions opts;
  opts.batchFraction = 0.01;  // rounds up to 1 host per batch
  auto report = runRollingRelease(hosts, opts);
  EXPECT_EQ(report.batches, 3u);
}

TEST(RollingReleaseTest, EmitsEvents) {
  FakeHost host("solo", std::chrono::milliseconds(5));
  std::vector<std::string> events;
  RollingReleaseOptions opts;
  opts.batchFraction = 1.0;
  opts.onEvent = [&](const std::string& e) { events.push_back(e); };
  runRollingRelease({&host}, opts);
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front(), "batch_start 1");
  EXPECT_EQ(events.back(), "release_done");
}

TEST(RollingReleaseTest, EmptyHostListNoBatches) {
  RollingReleaseOptions opts;
  auto report = runRollingRelease({}, opts);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.hosts, 0u);
}

TEST(RollingReleaseTest, InterBatchGapAddsTime) {
  std::vector<std::unique_ptr<FakeHost>> owned;
  std::vector<RestartableHost*> hosts;
  for (int i = 0; i < 2; ++i) {
    owned.push_back(std::make_unique<FakeHost>(
        "h" + std::to_string(i), std::chrono::milliseconds(5)));
    hosts.push_back(owned.back().get());
  }
  RollingReleaseOptions opts;
  opts.batchFraction = 0.5;
  opts.interBatchGap = std::chrono::milliseconds(150);
  auto report = runRollingRelease(hosts, opts);
  EXPECT_GE(report.totalSeconds, 0.15);
}

TEST(RollingReleaseTest, StuckHostStopsTheRelease) {
  FakeHost ok0("ok0", std::chrono::milliseconds(5));
  StuckHost stuck("stuck");
  FakeHost ok2("ok2", std::chrono::milliseconds(5));
  FakeHost ok3("ok3", std::chrono::milliseconds(5));
  std::vector<std::string> events;
  RollingReleaseOptions opts;
  opts.batchFraction = 0.25;  // one host per batch
  opts.perBatchTimeout = std::chrono::milliseconds(50);
  opts.onEvent = [&](const std::string& e) { events.push_back(e); };
  auto report = runRollingRelease({&ok0, &stuck, &ok2, &ok3}, opts);

  EXPECT_TRUE(report.timedOut);
  EXPECT_EQ(report.stuckHosts, std::vector<std::string>{"stuck"});
  EXPECT_EQ(report.batches, 2u);
  EXPECT_EQ(ok0.restarts(), 1);
  EXPECT_EQ(ok2.restarts(), 0);
  EXPECT_EQ(ok3.restarts(), 0);
  EXPECT_NE(std::find(events.begin(), events.end(), "host_stuck stuck"),
            events.end());
}

}  // namespace
}  // namespace zdr::release
