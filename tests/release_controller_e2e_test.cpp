// Flagship E2E: a fleet-scale staged rollout driven purely by /__stats
// scrapes, against multiple simulated PoPs each running the full
// mixed-protocol scenario matrix (HTTP/1.1 over H2 trunks, heavy-
// tailed uploads, MQTT fanout, quicish flows, flash-crowd load steps).
//
//  * CleanStagedRolloutCompletes — edge tier then origin tier, every
//    PoP, a flash crowd stepping up mid-rollout; the controller
//    completes every stage, every client-visible error budget reads
//    zero, and the machine-checked RELEASE_report.json artifact is
//    written for scripts/check_release_report.py to gate in CI.
//  * RegressionInStageTwoPausesThenRollsBackThatStageOnly — slow-
//    backend faults arm the moment stage 2 (edge/pop1) begins, the
//    paper's "degradation … at a micro level" (§5.1): p99 inflates
//    with *zero* client-visible errors. The controller must soft-pause
//    on the confirmed breach, wait out the grace window, roll back
//    stage 2's released hosts only, and skip the rest — stage 1 keeps
//    its new binary.
//
// Default sizing keeps ctest fast (2 PoPs × 3+3 proxies); set
// ZDR_RELEASE_E2E_FULL=1 (the nightly soak) for 4 PoPs × 8+8 = 64
// released hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "core/testbed.h"
#include "metrics/json_lite.h"
#include "metrics/trace_export.h"
#include "netcore/fault_injection.h"
#include "release/release_controller.h"

namespace zdr::release {
namespace {

using core::ScenarioMatrix;
using core::ScenarioOptions;
using core::Testbed;
using core::TestbedOptions;

bool fullMode() { return ::getenv("ZDR_RELEASE_E2E_FULL") != nullptr; }

// One simulated PoP: a testbed (namePrefix keeps host names and fault
// tags disjoint), its scenario traffic, and the scrape source the
// controller watches it through.
struct Pop {
  std::string name;
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<ScenarioMatrix> scenario;
  std::unique_ptr<HttpStatsSource> stats;
};

struct FleetOptions {
  size_t pops = 2;
  size_t edges = 3;
  size_t origins = 3;
  bool quic = false;
  Duration httpThinkTime = ScenarioOptions{}.httpThinkTime;
};

std::vector<Pop> buildFleet(const FleetOptions& f) {
  std::vector<Pop> fleet;
  for (size_t p = 0; p < f.pops; ++p) {
    Pop pop;
    pop.name = "pop" + std::to_string(p);
    TestbedOptions bopts;
    bopts.namePrefix = pop.name + ".";
    bopts.edges = f.edges;
    bopts.origins = f.origins;
    bopts.appServers = 2;
    bopts.enableQuic = f.quic;
    // Drain sized above the longest in-flight request (a large upload:
    // 20 chunks × 15 ms ≈ 300 ms), the paper's rule for the drain
    // interval — a POST straddling a restart must be allowed to finish
    // on the old instance rather than be killed at the deadline.
    bopts.proxyDrainPeriod = Duration{450};
    bopts.appDrainPeriod = Duration{100};
    pop.bed = std::make_unique<Testbed>(std::move(bopts));
    pop.bed->waitForTrunks();

    ScenarioOptions sopts;
    sopts.quic = f.quic;
    sopts.httpThinkTime = f.httpThinkTime;
    if (fullMode()) {
      // 64 proxies on one box: the pong round-trip rides a ~100 ms
      // scheduling tail, so the default 100 ms liveness probe would
      // declare healthy tunnels dead mid-rollout. Scaled like the p99
      // floor — dead-tunnel detection still lands within half a second.
      sopts.mqttKeepAlive = Duration{250};
    }
    pop.scenario = std::make_unique<ScenarioMatrix>(*pop.bed, sopts);

    std::vector<SocketAddr> entries;
    for (size_t e = 0; e < pop.bed->edgeCount(); ++e) {
      entries.push_back(pop.bed->httpEntry(e));
    }
    pop.stats = std::make_unique<HttpStatsSource>(std::move(entries));
    fleet.push_back(std::move(pop));
  }
  return fleet;
}

// Edge tier across every PoP first, then origin tier — the paper's
// order: the user-facing tier proves the binary before the origin
// fleet touches it. Budgets are per tier: a restarting *edge* is the
// MQTT tunnel terminator, so each connected client re-establishes its
// tunnel once (gracefully — a bounded churn budget, not a message
// loss); an *origin* restart must be invisible even to tunnels, DCR
// migrates them trunk-to-trunk (§4.2), so its drop budget is zero.
std::vector<StageSpec> buildStages(std::vector<Pop>& fleet,
                                   const DisruptionBudget& edgeBudget,
                                   const DisruptionBudget& originBudget) {
  std::vector<StageSpec> stages;
  for (const char* tier : {"edge", "origin"}) {
    for (auto& pop : fleet) {
      StageSpec s;
      s.name = std::string(tier) + "/" + pop.name;
      s.tier = tier;
      s.pop = pop.name;
      s.hosts = std::string(tier) == "edge" ? pop.bed->edgeHosts()
                                            : pop.bed->originHosts();
      s.stats = pop.stats.get();
      s.signals.clientPrefixes = pop.scenario->clientPrefixes();
      s.signals.latencyHist = pop.scenario->latencyHist();
      s.batchFraction = 0.5;
      s.budget = std::string(tier) == "edge" ? edgeBudget : originBudget;
      stages.push_back(std::move(s));
    }
  }
  return stages;
}

// SLO knobs shared by both rollouts. Client errors keep the paper's
// defaults (the zero bar); the loopback-specific adjustments:
//  * p99 floor 40 ms keeps scheduler noise on a loaded CI box out of
//    the latency SLO (a real regression lands far above it);
//  * MQTT tunnels enter through the L4 VIP, which hashes clients
//    across every edge — when a client's edge restarts it re-dials
//    gracefully, and the new flow can land on an edge a *later* batch
//    will restart. Worst-case churn per edge stage is therefore one
//    re-establishment per client per batch; the alarm sits just above
//    that structural allowance so the (machine-checked) budget is what
//    bounds it;
//  * a restarting proxy that terminates long-lived connections (MQTT
//    tunnels on an edge, H2 trunks on an origin) reports exactly one
//    drain straggler: its peers hold those connections open until the
//    old instance closes at the deadline, by design. One per host in
//    the largest stage is the structural floor; the alarm sits just
//    above it.
void tuneSlo(SloThresholds& slo, size_t mqttChurnAllowance,
             size_t hostsPerStage) {
  // The latency floor scales with deployment density: the full
  // (nightly) fleet packs 4 PoPs × 16 proxies onto what may be a
  // single-core CI box, where p99 during a concurrent batch restart is
  // pure scheduler backlog (~170 ms observed). The floor sits above
  // that structural tail; a real regression (the injected one drives
  // p99 past 350 ms) clears either floor with room to spare.
  slo.p99FloorMs = fullMode() ? 250.0 : 75.0;
  slo.mqttDropsSoft = static_cast<double>(mqttChurnAllowance) + 1;
  slo.mqttDropsHard = 3.0 * static_cast<double>(mqttChurnAllowance + 1);
  slo.drainStragglersSoft = static_cast<double>(hostsPerStage) + 1;
  slo.drainStragglersHard = 2.0 * static_cast<double>(hostsPerStage + 1);
}

void warmTraffic(std::vector<Pop>& fleet, uint64_t minCompleted) {
  for (auto& pop : fleet) {
    pop.scenario->start();
  }
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (auto& pop : fleet) {
    while (pop.scenario->completed() < minCompleted &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_GE(pop.scenario->completed(), minCompleted)
        << pop.name << " traffic never warmed up";
  }
}

TEST(ReleaseControllerE2E, CleanStagedRolloutCompletes) {
  FleetOptions f;
  f.pops = fullMode() ? 4 : 2;
  f.edges = fullMode() ? 8 : 3;
  f.origins = fullMode() ? 8 : 3;
  f.quic = true;
  auto fleet = buildFleet(f);
  warmTraffic(fleet, 50);

  const size_t mqttClients = ScenarioOptions{}.mqttClients;
  // Two batches per stage at batchFraction 0.5 ⇒ each client may churn
  // at most twice (its re-dialed flow can hash onto a later batch).
  const size_t mqttChurnAllowance = 2 * mqttClients;
  DisruptionBudget edgeBudget;  // zero client errors / sheds
  edgeBudget.maxMqttDrops = static_cast<double>(mqttChurnAllowance);
  edgeBudget.maxDrainStragglers = static_cast<double>(f.edges);
  // DCR's promise: an origin restart drops zero tunnels and fails zero
  // requests. Its trunks, though, are *held* by the edges until the old
  // instance closes at the drain deadline — one structural straggler
  // per restarted origin, budgeted exactly, nothing more.
  DisruptionBudget originBudget;
  originBudget.maxDrainStragglers = static_cast<double>(f.origins);
  auto stages = buildStages(fleet, edgeBudget, originBudget);
  const size_t totalHosts = f.pops * (f.edges + f.origins);

  ReleaseControllerOptions opts;
  opts.scrapeInterval = Duration{fullMode() ? 100 : 60};
  opts.confirmScrapes = 2;
  opts.stageSoakScrapes = 3;
  opts.pauseGraceScrapes = 10;
  // Between batches the fleet needs real time to re-converge: the
  // surviving proxies re-dial trunks to the hosts just restarted.
  // Restarting the next batch before that window closes can drain the
  // last healthy origin path — the gate holds until the PoP scrapes
  // clean for ~300 ms first.
  opts.interBatchScrapes = 5;
  tuneSlo(opts.slo, mqttChurnAllowance, std::max(f.edges, f.origins));
  // Flash crowd steps up while the second stage rolls and back down
  // two stages later — the release must hold SLOs through the step.
  opts.onStageStart = [&fleet](const StageSpec&, size_t idx) {
    if (idx == 1) {
      for (auto& pop : fleet) {
        pop.scenario->flashCrowdBegin();
      }
    } else if (idx == 3) {
      for (auto& pop : fleet) {
        pop.scenario->flashCrowdEnd();
      }
    }
  };

  ReleaseControllerReport report =
      ReleaseController(std::move(stages), opts).run();

  // Read the client-side truth before stop(): tearing the fleet down
  // aborts its connections, which is churn of the test's making.
  std::vector<uint64_t> popErrors;
  std::vector<uint64_t> popDrops;
  for (auto& pop : fleet) {
    popErrors.push_back(pop.scenario->clientVisibleErrors());
    popDrops.push_back(pop.scenario->mqttDrops());
    pop.scenario->stop();
  }

  // The CI-gated artifact — written before the assertions so a failing
  // run still archives the decision stream that explains it.
  ASSERT_TRUE(report.writeJson("RELEASE_report.json"));

  // Companion flight-recorder capture from the first PoP (the same
  // document its edges serve on /__trace): CI joins it with the report
  // via scripts/attribute_disruptions.py --report, proving the clean
  // rollout produced zero unattributed disruptions.
  {
    fr::TraceCaptureOptions copts;
    copts.instance = fleet[0].bed->edgeHosts().empty()
                         ? "pop0"
                         : fleet[0].bed->edgeHosts().front()->hostName();
    std::ofstream out("TRACE_controller_capture.json");
    out << fr::renderTraceCapture(fleet[0].bed->metrics(), copts);
  }

  EXPECT_EQ(report.outcome, RolloutOutcome::kCompleted);
  EXPECT_EQ(report.hostsReleased, totalHosts);
  EXPECT_EQ(report.hostsRolledBack, 0u);
  ASSERT_EQ(report.stages.size(), 2 * f.pops);
  for (const auto& stage : report.stages) {
    EXPECT_EQ(stage.outcome, StageOutcome::kCompleted) << stage.name;
    EXPECT_TRUE(stage.withinBudget) << stage.name;
    EXPECT_EQ(stage.consumed.clientErrors, 0.0) << stage.name;
    EXPECT_EQ(stage.consumed.shedRequests, 0.0) << stage.name;
  }
  // The zero-disruption bar, measured at the clients themselves too —
  // the scrape-side budget and the in-process truth must agree. Each
  // PoP's MQTT fleet tunnels through one edge, which restarted exactly
  // once: at most one graceful re-establishment per client.
  for (size_t p = 0; p < fleet.size(); ++p) {
    EXPECT_EQ(popErrors[p], 0u) << fleet[p].name;
    EXPECT_LE(popDrops[p], mqttChurnAllowance) << fleet[p].name;
  }
  for (auto& pop : fleet) {
    for (size_t e = 0; e < pop.bed->edgeCount(); ++e) {
      EXPECT_TRUE(pop.bed->edge(e).restartComplete());
    }
    for (size_t o = 0; o < pop.bed->originCount(); ++o) {
      EXPECT_TRUE(pop.bed->origin(o).restartComplete());
    }
  }
}

TEST(ReleaseControllerE2E, RegressionInStageTwoPausesThenRollsBackThatStageOnly) {
  // The chaos gate must open before the testbeds build so every socket
  // gets its fault tag bound at creation.
  fault::ScopedChaosMode chaos;

  FleetOptions f;
  f.pops = 2;
  f.edges = fullMode() ? 4 : 2;
  f.origins = 2;
  // The breach is on the *cumulative* client p99: it crosses once slow
  // samples reach 1% of everything recorded since the fleet started,
  // while each of the 6 HTTP connections completes only ~3 slow
  // requests/s. Every second of fast traffic before the fault raises
  // that bar, so the generator pace decides whether stage 2's soak
  // outweighs the history. At a 5 ms think time the breach lands
  // around observation 16 of the stage's ~26; at the default 3 ms the
  // stage completes before the p99 crosses.
  f.httpThinkTime = Duration{5};
  auto fleet = buildFleet(f);
  warmTraffic(fleet, 50);

  const size_t mqttClients = ScenarioOptions{}.mqttClients;
  const size_t mqttChurnAllowance = 2 * mqttClients;  // two batches/stage
  DisruptionBudget edgeBudget;  // still zero client errors — the breach is latency
  edgeBudget.maxMqttDrops = static_cast<double>(mqttChurnAllowance);
  edgeBudget.maxDrainStragglers = static_cast<double>(f.edges);
  DisruptionBudget originBudget;
  originBudget.maxDrainStragglers = static_cast<double>(f.origins);
  auto stages = buildStages(fleet, edgeBudget, originBudget);

  ReleaseControllerOptions opts;
  opts.scrapeInterval = Duration{80};
  opts.confirmScrapes = 2;
  // A long soak: the cumulative p99 needs enough slow samples to move,
  // and the stage must not complete before the breach confirms.
  opts.stageSoakScrapes = 12;
  opts.pauseGraceScrapes = 5;
  tuneSlo(opts.slo, mqttChurnAllowance, std::max(f.edges, f.origins));
  opts.slo.p99InflationSoft = 1.5;
  // Latency never hardens: the rollback must come from the *pause
  // grace running out*, proving the pause → escalate path end to end.
  opts.slo.p99InflationHard = 1e9;

  // The moment stage 2 (edge/pop1) begins, pop1's app backends turn
  // slow: every origin→app send buffers for 350 ms. No request fails —
  // 350 ms ≪ the 3 s request timeout — so the only symptom is the
  // tail, and it lands far above even the full-mode p99 floor.
  size_t regressIdx = 1;
  opts.onStageStart = [&fleet, regressIdx](const StageSpec& spec,
                                           size_t idx) {
    if (idx != regressIdx) {
      return;
    }
    fault::FaultSpec slow;
    slow.seed = 0x51047;
    slow.delayProb = 1.0;
    slow.delay = std::chrono::milliseconds(350);
    auto& pop = fleet[1];
    ASSERT_EQ(spec.pop, pop.name);
    for (size_t a = 0; a < pop.bed->appCount(); ++a) {
      fault::FaultRegistry::instance().armTag(
          "origin.app." + pop.bed->app(a).hostName(), slow);
    }
  };

  ReleaseControllerReport report =
      ReleaseController(std::move(stages), opts).run();

  std::vector<uint64_t> popErrors;
  for (auto& pop : fleet) {
    popErrors.push_back(pop.scenario->clientVisibleErrors());
    pop.scenario->stop();
  }

  EXPECT_EQ(report.outcome, RolloutOutcome::kRolledBack);
  ASSERT_EQ(report.stages.size(), 2 * f.pops);

  // Stage 1 (edge/pop0) completed and *keeps* the new binary.
  EXPECT_EQ(report.stages[0].outcome, StageOutcome::kCompleted);
  EXPECT_EQ(report.stages[0].hostsRolledBack, 0u);

  // Stage 2 (edge/pop1) paused on the confirmed soft breach, burned
  // its grace, and rolled back exactly what it had released.
  const StageReport& bad = report.stages[regressIdx];
  EXPECT_EQ(bad.pop, "pop1");
  EXPECT_EQ(bad.outcome, StageOutcome::kRolledBack);
  EXPECT_GE(bad.pauses, 1u);
  EXPECT_EQ(bad.hostsRolledBack, bad.hostsReleased);

  // Everything after the failed stage never starts.
  for (size_t i = regressIdx + 1; i < report.stages.size(); ++i) {
    EXPECT_EQ(report.stages[i].outcome, StageOutcome::kSkipped)
        << report.stages[i].name;
    EXPECT_EQ(report.stages[i].hostsReleased, 0u);
  }

  // The regression was invisible to clients: zero errors anywhere, on
  // both the scrape-side budget and the generators' own counters.
  for (const auto& stage : report.stages) {
    EXPECT_EQ(stage.consumed.clientErrors, 0.0) << stage.name;
  }
  for (size_t p = 0; p < fleet.size(); ++p) {
    EXPECT_EQ(popErrors[p], 0u) << fleet[p].name;
  }
  for (auto& pop : fleet) {
    for (size_t e = 0; e < pop.bed->edgeCount(); ++e) {
      EXPECT_TRUE(pop.bed->edge(e).restartComplete());
      EXPECT_TRUE(pop.bed->edge(e).serving());
    }
  }

  // Every decision must be reconstructible from the report alone:
  // find the pause and the rollback in stage 2's decision stream and
  // check the recorded samples justify them.
  bool sawPause = false;
  bool sawRollback = false;
  for (const auto& d : bad.decisions) {
    if (d.action == "pause") {
      sawPause = true;
      EXPECT_NE(d.reason.find("p99_inflation"), std::string::npos) << d.reason;
    }
    if (d.action == "rollback") {
      sawRollback = true;
      EXPECT_NE(d.reason.find("pause grace exhausted"), std::string::npos)
          << d.reason;
    }
  }
  EXPECT_TRUE(sawPause);
  EXPECT_TRUE(sawRollback);

  // Archive the rollback-path report too; CI checks it expects a
  // rollback with intact budgets.
  ASSERT_TRUE(report.writeJson("RELEASE_report_rollback.json"));

  // And the JSON round-trips: the parsed document carries the same
  // verdict the in-memory report does.
  jsonlite::Value doc = jsonlite::Parser::parse(report.toJson());
  EXPECT_EQ(doc.at("outcome").str, "rolled_back");
  EXPECT_EQ(doc.at("stages").at(regressIdx).at("outcome").str, "rolled_back");
}

}  // namespace
}  // namespace zdr::release
