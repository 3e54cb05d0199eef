// Fleet release drills: releases across a whole edge tier with live
// traffic, under three regimes —
//   1. a rolling Zero Downtime Release (socket takeover per host),
//   2. a rolling traditional HardRestart,
//   3. a canary drill: ReleaseController rolls a bad binary whose
//      client-visible errors burn the first batch's (the canary's)
//      zero-error budget, and rolls that batch back (§5.1's mitigation
//      practice).
//
//   ./build/examples/release_fleet
#include <cstdio>

#include "core/testbed.h"
#include "core/workload.h"
#include "netcore/fault_injection.h"
#include "release/release_controller.h"

using namespace zdr;

namespace {

struct Drill {
  uint64_t completed = 0;
  uint64_t failures = 0;
  double seconds = 0;
};

std::string loadPrefix(size_t edge) { return "load" + std::to_string(edge); }

// One load generator per edge entry, warmed up before returning.
std::vector<std::unique_ptr<core::HttpLoadGen>> startLoads(
    core::Testbed& bed) {
  std::vector<std::unique_ptr<core::HttpLoadGen>> loads;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    core::HttpLoadGen::Options lo;
    lo.concurrency = 3;
    lo.thinkTime = Duration{2};
    lo.timeout = Duration{1200};
    loads.push_back(std::make_unique<core::HttpLoadGen>(
        bed.httpEntry(e), lo, bed.metrics(), loadPrefix(e)));
    loads.back()->start();
  }
  while (loads[0]->completed() < 50) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return loads;
}

Drill runRolling(release::Strategy strategy) {
  core::TestbedOptions opts;
  opts.edges = 4;
  opts.origins = 2;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.proxyDrainPeriod = Duration{300};
  core::Testbed bed(opts);
  auto loads = startLoads(bed);

  release::RollingReleaseOptions ro;
  ro.strategy = strategy;
  ro.batchFraction = 0.25;
  auto report = release::runRollingRelease(bed.edgeHosts(), ro);

  for (auto& l : loads) {
    l->stop();
  }
  Drill d;
  d.seconds = report.totalSeconds;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    d.completed += bed.metrics().counter(loadPrefix(e) + ".ok").value();
    for (const char* kind : {".err_http", ".err_timeout", ".err_transport"}) {
      d.failures += bed.metrics().counter(loadPrefix(e) + kind).value();
    }
  }
  return d;
}

// True when the drill ended as it must: rolled back, with every
// released host rolled back.
bool runCanaryDrill() {
  // The chaos gate opens before the testbed builds so every socket gets
  // its fault tag bound at creation.
  fault::ScopedChaosMode chaos;
  core::TestbedOptions opts;
  opts.edges = 4;
  opts.origins = 1;
  opts.appServers = 2;
  opts.enableMqtt = false;
  opts.proxyDrainPeriod = Duration{200};
  core::Testbed bed(opts);
  auto loads = startLoads(bed);

  std::vector<SocketAddr> entries;
  release::StageSpec stage;
  for (size_t e = 0; e < bed.edgeCount(); ++e) {
    entries.push_back(bed.httpEntry(e));
    stage.signals.clientPrefixes.push_back(loadPrefix(e));
  }
  release::HttpStatsSource stats(std::move(entries));
  stage.name = "edge/pop0";
  stage.tier = "edge";
  stage.pop = "pop0";
  stage.hosts = bed.edgeHosts();
  stage.stats = &stats;
  stage.signals.latencyHist = loadPrefix(0) + ".latency_ms";
  stage.batchFraction = 0.25;  // the canary is one edge of four

  release::ReleaseControllerOptions co;
  co.scrapeInterval = Duration{50};
  // The bad binary: from the stage's start every origin→app write is
  // reset, so clients get real 5xx responses. The stage's baseline is
  // scraped right after this hook; every error after it burns budget.
  co.onStageStart = [](const release::StageSpec&, size_t) {
    fault::FaultSpec bad;
    bad.errProb = 1.0;
    bad.errOp = fault::Op::kWrite;
    fault::FaultRegistry::instance().armTag("origin.app", bad);
  };
  std::vector<std::string> events;
  co.onEvent = [&](const std::string& e) { events.push_back(e); };

  auto report = release::ReleaseController({stage}, co).run();
  for (auto& l : loads) {
    l->stop();
  }

  std::string reason;
  for (const auto& d : report.stages[0].decisions) {
    if (d.action == "rollback") {
      reason = d.reason;
    }
  }
  const bool rolledBack =
      report.outcome == release::RolloutOutcome::kRolledBack;
  std::printf("  canary outcome: %s\n",
              rolledBack ? "ROLLED BACK"
                         : release::rolloutOutcomeName(report.outcome));
  std::printf("  hosts released before detection: %zu\n",
              report.hostsReleased);
  std::printf("  hosts rolled back:               %zu\n",
              report.hostsRolledBack);
  std::printf("  rollback reason: %s\n", reason.c_str());
  std::printf("  events: ");
  for (const auto& e : events) {
    std::printf("[%s] ", e.c_str());
  }
  std::printf("\n");
  return rolledBack && report.hostsRolledBack == report.hostsReleased;
}

}  // namespace

int main() {
  std::printf("== Fleet release drills (4-edge tier, live traffic) ==\n\n");

  std::printf("1) Rolling Zero Downtime Release, 25%% batches:\n");
  Drill zdr = runRolling(release::Strategy::kZeroDowntime);
  std::printf("  completed=%llu failures=%llu in %.1fs\n\n",
              static_cast<unsigned long long>(zdr.completed),
              static_cast<unsigned long long>(zdr.failures), zdr.seconds);

  std::printf("2) Rolling HardRestart, 25%% batches:\n");
  Drill hard = runRolling(release::Strategy::kHardRestart);
  std::printf("  completed=%llu failures=%llu in %.1fs\n\n",
              static_cast<unsigned long long>(hard.completed),
              static_cast<unsigned long long>(hard.failures), hard.seconds);

  std::printf("3) Canary release of a bad binary (auto-rollback):\n");
  const bool canaryOk = runCanaryDrill();

  std::printf("\nZDR failures:  %llu (expected 0)\n",
              static_cast<unsigned long long>(zdr.failures));
  std::printf("Hard failures: %llu (the cost of the old way)\n",
              static_cast<unsigned long long>(hard.failures));
  return zdr.failures == 0 && canaryOk ? 0 : 1;
}
