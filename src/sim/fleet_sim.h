// Fleet-scale release simulator.
//
// The testbed reproduces the paper's *mechanisms* with real sockets;
// the figures that depend on fleet scale and multi-hour wall clocks
// (capacity timelines, global completion times, restart-hour PDFs,
// reconnect CPU) are reproduced here with a virtual clock. Each model
// is parameterized by the production numbers the paper states: 20-min
// proxy drains, 10–15 s app drains, 5/15/20% batches, 10s of
// DataCenters and 100s of Edge PoPs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace zdr::sim {

// ---------------------------------------------------------------- Fig 3a/8b

struct CapacitySimParams {
  size_t hosts = 100;
  double batchFraction = 0.2;      // paper: 15/20% (Fig 3a), 5/20% (Fig 8b)
  double drainSeconds = 1200;      // 20-minute proxy drain
  double bootSeconds = 30;         // new binary boot (HardRestart only)
  double interBatchGapSeconds = 120;
  bool zdr = false;

  // ZDR overheads (§6.3/Fig 17): while two instances overlap, the host
  // loses a small CPU fraction, with a larger spike early in the drain.
  double takeoverCpuPenalty = 0.01;
  double takeoverSpikeSeconds = 65;
  double takeoverSpikePenalty = 0.05;

  double sampleIntervalSeconds = 10;
};

struct CapacitySample {
  double tSeconds;
  // Fraction of hosts accepting new connections (the Fig 3a capacity).
  double servingFraction;
  // Cluster idle-CPU normalized to pre-release baseline (Fig 8b).
  double idleCpuFraction;
};

std::vector<CapacitySample> simulateRollingCapacity(
    const CapacitySimParams& params);

// ------------------------------------------------------------------ Fig 16

struct CompletionSimParams {
  size_t clusters = 20;
  size_t hostsPerCluster = 100;
  double batchFraction = 0.2;
  double drainSeconds = 1200;
  double bootSeconds = 30;
  double interBatchGapSeconds = 60;
  // Per-batch operational jitter (validation, canary checks).
  double batchJitterSeconds = 60;
  uint64_t seed = 42;
};

struct CompletionResult {
  std::vector<double> perClusterMinutes;  // sorted
  double medianMinutes = 0;
  double p25Minutes = 0;
  double p75Minutes = 0;
};

// Clusters release in parallel (the paper's global roll-out): the
// completion time is the slowest cluster.
CompletionResult simulateGlobalRelease(const CompletionSimParams& params);

// ------------------------------------------------------------------ Fig 15

enum class SchedulePolicy : uint8_t {
  // ZDR lets operators release during peak/work hours when they are
  // hands-on (§6.2.2): releases cluster in the 12:00–17:00 window.
  kPeakHours,
  // The app tier releases continuously, ~100×/week: near-flat PDF.
  kContinuous,
  // The pre-ZDR conservative policy: off-peak (night) releases only.
  kOffPeak,
};

// 24-bucket PDF (sums to 1) of restart counts by local hour.
std::array<double, 24> simulateRestartHourPdf(SchedulePolicy policy,
                                              size_t releases,
                                              uint64_t seed = 42);

// ------------------------------------------------------------------ Fig 3b

struct ReconnectCpuParams {
  // Fraction of Origin Proxygen instances restarted at once.
  double proxyFractionRestarted = 0.1;
  // Connections per proxy instance that must re-handshake.
  double connectionsPerProxy = 100000;
  size_t proxies = 100;
  // CPU seconds to rebuild one connection's state (TCP+TLS full
  // handshake with asymmetric crypto, session-resumption miss, §2.5).
  double handshakeCpuSeconds = 0.0048;
  // Window over which reconnects arrive.
  double reconnectWindowSeconds = 30;
  // Aggregate app-tier CPU capacity in CPU-seconds/second.
  double appTierCpuCapacity = 800;
};

// Returns the fraction of app-tier CPU consumed by state rebuild
// during the reconnect window. Paper: 10% of Origin restarting ⇒ ~20%.
double reconnectCpuFraction(const ReconnectCpuParams& params);

// ------------------------------------------------- release-under-faults

// Analytic companion to the chaos test suite: how often do the §4
// mechanisms themselves fail when the control channels are lossy, and
// what end-user disruption does that translate to across a rolling
// release? Mirrors the fault kinds the netcore FaultRegistry injects
// (aborted takeover handoffs, lost reconnect_solicitations, failed
// 379 replays) so sim sweeps and chaos tests share one vocabulary.
struct FaultModelParams {
  size_t hosts = 100;
  // Tunnels and in-flight POSTs per restarting host.
  double tunnelsPerHost = 1000;
  double postsInFlightPerHost = 50;

  // Per-handoff probability that the SCM_RIGHTS exchange aborts
  // (sendmsg reset mid-inventory). An aborted handoff falls back to a
  // HardRestart of that host: every tunnel and POST on it disrupts.
  double takeoverAbortProb = 0;
  // Per-trunk probability one reconnect_solicitation transmission is
  // lost; the Origin re-sends up to solicitationRetries times.
  double solicitationLossProb = 0;
  int solicitationRetries = 3;
  // Per-POST probability the 379 replay itself fails (truncated body
  // digest mismatch); the request surfaces a 500.
  double pprReplayFailProb = 0;

  uint64_t seed = 42;
};

struct FaultSweepResult {
  uint64_t hostsRestarted = 0;
  uint64_t takeoverAborts = 0;
  uint64_t solicitationRetriesUsed = 0;
  uint64_t tunnelsDropped = 0;
  uint64_t postsFailed = 0;
  // Disrupted units / total units touched by the release.
  double disruptionFraction = 0;
};

FaultSweepResult simulateReleaseUnderFaults(const FaultModelParams& params);

// ------------------------------------------------- latency-vs-capacity

// M/M/c-style tail latency inflation when capacity drops (the §2.5
// observation that a 10% capacity loss visibly inflates tails).
// Returns relative p99 latency vs. the full-capacity baseline.
double tailLatencyInflation(double offeredLoad, double capacityFraction);

}  // namespace zdr::sim
