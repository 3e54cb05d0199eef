// Release controller state machine, driven by scripted stats sources:
// clean rollouts complete, confirmed soft breaches pause-then-resume,
// hard breaches roll back only the offending stage, budget burn acts
// immediately, and a controller that loses sight of the fleet rolls
// back rather than continue blind. The serialized report must let a
// reader re-derive every decision (the machine-check contract).
#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "metrics/json_lite.h"
#include "release/release_controller.h"

namespace zdr::release {
namespace {

class CountingHost : public RestartableHost {
 public:
  explicit CountingHost(std::string name) : name_(std::move(name)) {}
  ~CountingHost() override {
    if (worker_.joinable()) {
      worker_.join();
    }
  }
  [[nodiscard]] std::string hostName() const override { return name_; }
  void beginRestart(Strategy) override {
    inProgress_.store(true);
    if (worker_.joinable()) {
      worker_.join();
    }
    worker_ = std::thread([this] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      restarts_.fetch_add(1);
      inProgress_.store(false);
    });
  }
  [[nodiscard]] bool restartComplete() const override {
    return !inProgress_.load();
  }
  [[nodiscard]] int restarts() const { return restarts_.load(); }

 private:
  std::string name_;
  std::thread worker_;
  std::atomic<bool> inProgress_{false};
  std::atomic<int> restarts_{0};
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

// Produces one StatsSnapshot per scrape from a script function of the
// 0-based scrape index (baseline included).
class ScriptedStatsSource : public StatsSource {
 public:
  using Script = std::function<bool(size_t call, stats::StatsSnapshot& out,
                                    std::string& err)>;
  explicit ScriptedStatsSource(Script script)
      : script_(std::move(script)) {}

  bool scrape(stats::StatsSnapshot& out, std::string& err) override {
    return script_(calls_++, out, err);
  }
  [[nodiscard]] std::string describe() const override { return "scripted"; }
  [[nodiscard]] size_t calls() const { return calls_; }

 private:
  Script script_;
  size_t calls_ = 0;
};

// Healthy fleet: ok counter grows with every scrape, p99 flat.
stats::StatsSnapshot healthySnap(size_t call) {
  stats::StatsSnapshot s;
  s.tNs = static_cast<double>(call) * 1e6;
  s.counters["load.ok"] = 1000.0 + 50.0 * static_cast<double>(call);
  s.hist["load.latency_ms.p99"] = 25.0;
  return s;
}

SloSignals loadSignals() {
  SloSignals sig;
  sig.clientPrefixes = {"load"};
  sig.latencyHist = "load.latency_ms";
  return sig;
}

std::vector<std::unique_ptr<CountingHost>> makeHosts(int n,
                                                     const std::string& p) {
  std::vector<std::unique_ptr<CountingHost>> hosts;
  for (int i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<CountingHost>(p + std::to_string(i)));
  }
  return hosts;
}

std::vector<RestartableHost*> raw(
    const std::vector<std::unique_ptr<CountingHost>>& hosts) {
  std::vector<RestartableHost*> out;
  for (auto& h : hosts) {
    out.push_back(h.get());
  }
  return out;
}

StageSpec edgeStage(std::vector<RestartableHost*> hosts, StatsSource* src) {
  StageSpec stage;
  stage.name = "edge/pop0";
  stage.tier = "edge";
  stage.pop = "pop0";
  stage.hosts = std::move(hosts);
  stage.stats = src;
  stage.signals = loadSignals();
  return stage;
}

ReleaseControllerOptions fastOptions() {
  ReleaseControllerOptions opts;
  opts.scrapeInterval = Duration{2};
  opts.confirmScrapes = 2;
  opts.stageSoakScrapes = 2;
  opts.pauseGraceScrapes = 30;
  opts.maxScrapeFailures = 3;
  return opts;
}

TEST(ReleaseControllerTest, CleanRolloutCompletesAllStages) {
  auto edges = makeHosts(4, "e");
  auto origins = makeHosts(4, "o");
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    return true;
  });

  StageSpec edge = edgeStage(raw(edges), &src);
  StageSpec originStage = edge;
  originStage.name = "origin/pop0";
  originStage.tier = "origin";
  originStage.hosts = raw(origins);

  MetricsRegistry metrics;
  auto opts = fastOptions();
  opts.metrics = &metrics;
  ReleaseController ctl({edge, originStage}, opts);
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kCompleted);
  ASSERT_EQ(report.stages.size(), 2u);
  for (const auto& st : report.stages) {
    EXPECT_EQ(st.outcome, StageOutcome::kCompleted);
    EXPECT_EQ(st.batchesCompleted, 2u);  // 4 hosts at 50%
    EXPECT_EQ(st.hostsReleased, 4u);
    EXPECT_TRUE(st.withinBudget);
    EXPECT_EQ(st.pauses, 0u);
  }
  EXPECT_EQ(report.hostsReleased, 8u);
  EXPECT_EQ(report.hostsRolledBack, 0u);
  for (auto& h : edges) {
    EXPECT_EQ(h->restarts(), 1);
  }
  for (auto& h : origins) {
    EXPECT_EQ(h->restarts(), 1);
  }
  EXPECT_GE(metrics.counter("release.controller.stages_completed").value(),
            2u);
  EXPECT_GE(metrics.counter("slo.ok").value(), 4u);
  EXPECT_EQ(metrics.counter("release.controller.rollbacks").value(), 0u);
}

TEST(ReleaseControllerTest, ConfirmedSoftBreachPausesThenResumes) {
  auto hosts = makeHosts(4, "e");
  // Soft breach (p99 inflation ×2.4) over scrapes 2..9, then recovery.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    if (call >= 2 && call < 10) {
      out.hist["load.latency_ms.p99"] = 60.0;  // 25 → 60: soft, not hard
    }
    return true;
  });

  StageSpec stage = edgeStage(raw(hosts), &src);

  ReleaseController ctl({stage}, fastOptions());
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kCompleted);
  ASSERT_EQ(report.stages.size(), 1u);
  const auto& st = report.stages[0];
  EXPECT_EQ(st.outcome, StageOutcome::kCompleted);
  EXPECT_GE(st.pauses, 1u);
  EXPECT_EQ(st.hostsReleased, 4u);
  // The pause and resume are both on the decision record.
  bool sawPause = false;
  bool sawResume = false;
  for (const auto& d : st.decisions) {
    if (d.action == "pause") {
      sawPause = true;
      EXPECT_NE(d.reason.find("p99_inflation"), std::string::npos);
    }
    if (d.action == "resume") {
      sawResume = true;
    }
  }
  EXPECT_TRUE(sawPause);
  EXPECT_TRUE(sawResume);
}

TEST(ReleaseControllerTest, HardBreachRollsBackOffendingStageOnly) {
  auto edges = makeHosts(3, "e");
  auto origins = makeHosts(3, "o");
  auto apps = makeHosts(3, "a");

  ScriptedStatsSource healthy([](size_t call, stats::StatsSnapshot& out,
                                 std::string&) {
    out = healthySnap(call);
    return true;
  });
  // Origin-stage source: client error rate explodes once its hosts
  // start restarting (err present from the second scrape on).
  ScriptedStatsSource regressing([](size_t call, stats::StatsSnapshot& out,
                                    std::string&) {
    out = healthySnap(call);
    if (call >= 1) {
      out.counters["load.err_http"] =
          10.0 * static_cast<double>(call);  // err_rate ≫ hard 0.01
    }
    return true;
  });

  auto mkStage = [](const char* name, const char* tier,
                    std::vector<RestartableHost*> hosts,
                    StatsSource* src) {
    StageSpec s = edgeStage(std::move(hosts), src);
    s.name = name;
    s.tier = tier;
    // This test exercises the SLO threshold path, not the budget path.
    s.budget.maxClientErrors = 1e9;
    return s;
  };
  StageSpec s1 = mkStage("edge/pop0", "edge", raw(edges), &healthy);
  StageSpec s2 = mkStage("origin/pop0", "origin", raw(origins), &regressing);
  StageSpec s3 = mkStage("app/pop0", "app", raw(apps), &healthy);

  MetricsRegistry metrics;
  auto opts = fastOptions();
  opts.metrics = &metrics;
  size_t rollbackStage = SIZE_MAX;
  opts.onStageRollback = [&](const StageSpec&, size_t idx) {
    rollbackStage = idx;
  };
  ReleaseController ctl({s1, s2, s3}, opts);
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kRolledBack);
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[0].outcome, StageOutcome::kCompleted);
  EXPECT_EQ(report.stages[1].outcome, StageOutcome::kRolledBack);
  EXPECT_EQ(report.stages[2].outcome, StageOutcome::kSkipped);
  EXPECT_EQ(rollbackStage, 1u);

  // Stage 1's hosts keep the new binary (one restart); the offending
  // stage's released hosts restarted twice; stage 3 never started.
  for (auto& h : edges) {
    EXPECT_EQ(h->restarts(), 1);
  }
  // Every released origin came back (2 restarts); none was left
  // half-way (1 would be released but not rolled back).
  int rolledBack = 0;
  for (auto& h : origins) {
    EXPECT_TRUE(h->restarts() == 0 || h->restarts() == 2)
        << h->hostName() << " restarted " << h->restarts() << " times";
    if (h->restarts() == 2) {
      ++rolledBack;
    }
  }
  EXPECT_EQ(static_cast<size_t>(rolledBack),
            report.stages[1].hostsRolledBack);
  for (auto& h : apps) {
    EXPECT_EQ(h->restarts(), 0);
  }

  // The rollback decision carries the err_rate reason.
  bool sawRollback = false;
  for (const auto& d : report.stages[1].decisions) {
    if (d.action == "rollback") {
      sawRollback = true;
      EXPECT_NE(d.reason.find("err_rate"), std::string::npos);
    }
  }
  EXPECT_TRUE(sawRollback);
  EXPECT_GE(metrics.counter("release.controller.rollbacks").value(), 1u);
  EXPECT_GE(metrics.counter("slo.hard_breach").value(), 2u);
}

TEST(ReleaseControllerTest, BudgetBurnActsWithoutDebounce) {
  auto hosts = makeHosts(4, "e");
  // One client-visible error appears after the first batch; with the
  // default zero-error budget that is an immediate hard condition even
  // though the err *rate* is far below the SLO thresholds.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    if (call >= 2) {
      out.counters["load.err_http"] = 1.0;
    }
    return true;
  });

  StageSpec stage = edgeStage(raw(hosts), &src);
  ASSERT_EQ(stage.budget.maxClientErrors, 0.0);

  ReleaseController ctl({stage}, fastOptions());
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kRolledBack);
  const auto& st = report.stages[0];
  EXPECT_EQ(st.outcome, StageOutcome::kRolledBack);
  EXPECT_FALSE(st.withinBudget);
  EXPECT_GE(st.consumed.clientErrors, 1.0);
  bool sawBudgetReason = false;
  for (const auto& d : st.decisions) {
    if (d.action == "rollback" &&
        d.reason.find("budget client_errors") != std::string::npos) {
      sawBudgetReason = true;
    }
  }
  EXPECT_TRUE(sawBudgetReason);
}

TEST(ReleaseControllerTest, FlyingBlindRollsBack) {
  auto hosts = makeHosts(2, "e");
  // Baseline succeeds; every scrape after that fails.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string& err) {
    if (call == 0) {
      out = healthySnap(call);
      return true;
    }
    err = "connection refused";
    return false;
  });

  StageSpec stage = edgeStage(raw(hosts), &src);

  ReleaseController ctl({stage}, fastOptions());
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kRolledBack);
  EXPECT_EQ(report.stages[0].outcome, StageOutcome::kRolledBack);
  EXPECT_GE(report.scrapeFailures, 3u);
  bool sawBlind = false;
  for (const auto& d : report.stages[0].decisions) {
    if (d.action == "rollback" &&
        d.reason.find("stats unreachable") != std::string::npos) {
      sawBlind = true;
    }
  }
  EXPECT_TRUE(sawBlind);
}

TEST(ReleaseControllerTest, BaselineUnreachableAbortsBeforeTouchingHosts) {
  auto hosts = makeHosts(2, "e");
  ScriptedStatsSource src([](size_t, stats::StatsSnapshot&,
                             std::string& err) {
    err = "refused";
    return false;
  });
  StageSpec stage = edgeStage(raw(hosts), &src);

  ReleaseController ctl({stage}, fastOptions());
  auto report = ctl.run();
  EXPECT_EQ(report.outcome, RolloutOutcome::kAborted);
  EXPECT_EQ(report.stages[0].outcome, StageOutcome::kAborted);
  for (auto& h : hosts) {
    EXPECT_EQ(h->restarts(), 0);  // never touched
  }
}

TEST(ReleaseControllerTest, ReportJsonReconstructsDecisions) {
  auto hosts = makeHosts(2, "e");
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    return true;
  });
  StageSpec stage = edgeStage(raw(hosts), &src);

  ReleaseController ctl({stage}, fastOptions());
  auto report = ctl.run();
  ASSERT_EQ(report.outcome, RolloutOutcome::kCompleted);

  jsonlite::Value doc = jsonlite::Parser::parse(report.toJson());
  EXPECT_EQ(doc.at("schema").str, "zdr.release_report.v1");
  EXPECT_EQ(doc.at("outcome").str, "completed");
  EXPECT_EQ(doc.at("strategy").str, "zero_downtime");
  const auto& st = doc.at("stages").items.at(0);
  EXPECT_EQ(st->at("name").str, "edge/pop0");
  EXPECT_EQ(st->at("outcome").str, "completed");
  EXPECT_EQ(st->at("within_budget").type, jsonlite::Value::Type::kBool);
  EXPECT_TRUE(st->at("within_budget").boolean);
  // Thresholds + per-decision samples are all present, so a checker
  // can re-derive every verdict from the archived document alone.
  EXPECT_DOUBLE_EQ(doc.at("slo").at("err_rate_hard").number, 0.01);
  bool sawObserveWithSample = false;
  for (const auto& d : st->at("decisions").items) {
    EXPECT_FALSE(d->at("action").str.empty());
    if (d->at("action").str == "observe") {
      sawObserveWithSample = d->has("sample") &&
                             d->at("sample").has("ok_delta");
    }
  }
  EXPECT_TRUE(sawObserveWithSample);
}

TEST(ReleaseControllerTest, FirstBatchBreachRollsBackOnlyTheCanary) {
  auto hosts = makeHosts(5, "e");
  // Client errors from the first scrape after the baseline: the canary
  // batch's restart already burns the default zero-error budget.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    if (call >= 1) {
      out.counters["load.err_http"] = static_cast<double>(call);
    }
    return true;
  });
  StageSpec stage = edgeStage(raw(hosts), &src);
  stage.batchFraction = 0.2;  // canary = 1 host
  ASSERT_EQ(stage.budget.maxClientErrors, 0.0);

  std::vector<std::string> events;
  auto opts = fastOptions();
  opts.onEvent = [&](const std::string& e) { events.push_back(e); };
  ReleaseController ctl({stage}, opts);
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kRolledBack);
  const auto& st = report.stages[0];
  EXPECT_EQ(st.outcome, StageOutcome::kRolledBack);
  EXPECT_EQ(st.batchesCompleted, 1u);
  EXPECT_EQ(st.hostsReleased, 1u);
  EXPECT_EQ(st.hostsRolledBack, 1u);
  EXPECT_EQ(hosts[0]->restarts(), 2);  // release + rollback
  for (size_t i = 1; i < hosts.size(); ++i) {
    EXPECT_EQ(hosts[i]->restarts(), 0) << hosts[i]->hostName();
  }
  // The cause travels with the event stream, not only the report.
  bool sawCause = false;
  for (const auto& e : events) {
    if (e.rfind("controller_rollback edge/pop0: ", 0) == 0 &&
        e.find("budget client_errors") != std::string::npos) {
      sawCause = true;
    }
  }
  EXPECT_TRUE(sawCause);
}

TEST(ReleaseControllerTest, IsolatedSoftScrapesDoNotPause) {
  auto hosts = makeHosts(4, "e");
  // Every third scrape is soft (p99 ×2.4), never two in a row: noise
  // the confirm debounce must absorb.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    if (call % 3 == 2) {
      out.hist["load.latency_ms.p99"] = 60.0;
    }
    return true;
  });

  ReleaseController ctl({edgeStage(raw(hosts), &src)}, fastOptions());
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kCompleted);
  const auto& st = report.stages[0];
  EXPECT_EQ(st.outcome, StageOutcome::kCompleted);
  EXPECT_EQ(st.pauses, 0u);
  EXPECT_EQ(st.hostsReleased, 4u);
  size_t softSamples = 0;
  for (const auto& d : st.decisions) {
    if (d.action == "observe" && d.level == SloLevel::kSoft) {
      ++softSamples;
    }
  }
  EXPECT_GE(softSamples, 1u);
}

TEST(ReleaseControllerTest, SoakNeedsCleanSamplesNotFailedScrapes) {
  auto hosts = makeHosts(4, "e");
  // The baseline succeeds; after it only every third scrape does. Never
  // three failures in a row, so the controller is never blind.
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string& err) {
    if (call != 0 && call % 3 != 0) {
      err = "scrape timed out";
      return false;
    }
    out = healthySnap(call);
    return true;
  });

  const auto opts = fastOptions();
  ReleaseController ctl({edgeStage(raw(hosts), &src)}, opts);
  auto report = ctl.run();

  ASSERT_EQ(report.outcome, RolloutOutcome::kCompleted);
  const auto& decisions = report.stages[0].decisions;
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.back().action, "complete");
  size_t lastBatchDone = 0;
  for (size_t i = 0; i < decisions.size(); ++i) {
    if (decisions[i].action == "batch_done") {
      lastBatchDone = i;
    }
  }
  int soakSamples = 0;
  for (size_t i = lastBatchDone; i < decisions.size(); ++i) {
    if (decisions[i].action == "observe" &&
        decisions[i].level == SloLevel::kOk) {
      ++soakSamples;
    }
  }
  EXPECT_GE(soakSamples, opts.stageSoakScrapes);
}

TEST(ReleaseControllerTest, BatchTimeoutAbortsAndSkipsTheRest) {
  auto first = makeHosts(1, "e");
  StuckHost stuck("stuck");
  auto second = makeHosts(2, "o");
  ScriptedStatsSource src([](size_t call, stats::StatsSnapshot& out,
                             std::string&) {
    out = healthySnap(call);
    return true;
  });
  StageSpec s1 = edgeStage({first[0].get(), &stuck}, &src);
  s1.batchFraction = 1.0;  // one batch: a healthy host beside the stuck one
  StageSpec s2 = edgeStage(raw(second), &src);
  s2.name = "origin/pop0";
  s2.tier = "origin";

  auto opts = fastOptions();
  opts.perBatchTimeout = Duration{50};
  ReleaseController ctl({s1, s2}, opts);
  auto report = ctl.run();

  EXPECT_EQ(report.outcome, RolloutOutcome::kAborted);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.stages[0].outcome, StageOutcome::kAborted);
  EXPECT_EQ(report.stages[1].outcome, StageOutcome::kSkipped);
  EXPECT_EQ(report.stages[0].hostsReleased, 0u);
  const auto& last = report.stages[0].decisions.back();
  EXPECT_EQ(last.action, "abort");
  // Only the host that never completed is named.
  EXPECT_EQ(last.reason, "batch restart timed out: stuck");
  for (auto& h : second) {
    EXPECT_EQ(h->restarts(), 0);
  }
}

}  // namespace
}  // namespace zdr::release
