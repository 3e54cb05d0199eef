#include "sim/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <random>

namespace zdr::sim {

std::vector<CapacitySample> simulateRollingCapacity(
    const CapacitySimParams& p) {
  // Batch schedule: batch k drains over [start, start+drain); for
  // HardRestart the hosts then boot for bootSeconds; batches are
  // separated by interBatchGapSeconds.
  struct Batch {
    double start;
    size_t hosts;
  };
  std::vector<Batch> batches;
  size_t batchSize = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(p.batchFraction *
                                       static_cast<double>(p.hosts))));
  double t = 0;
  for (size_t done = 0; done < p.hosts; done += batchSize) {
    size_t n = std::min(batchSize, p.hosts - done);
    batches.push_back({t, n});
    double batchDuration =
        p.drainSeconds + (p.zdr ? 0.0 : p.bootSeconds);
    t += batchDuration + p.interBatchGapSeconds;
  }
  double totalTime = t + 30;

  std::vector<CapacitySample> samples;
  for (double now = 0; now <= totalTime; now += p.sampleIntervalSeconds) {
    double drainingHosts = 0;
    double spikingHosts = 0;
    double darkHosts = 0;
    for (const auto& b : batches) {
      double sinceStart = now - b.start;
      if (sinceStart < 0) {
        continue;
      }
      if (sinceStart < p.drainSeconds) {
        drainingHosts += static_cast<double>(b.hosts);
        if (p.zdr && sinceStart < p.takeoverSpikeSeconds) {
          spikingHosts += static_cast<double>(b.hosts);
        }
      } else if (!p.zdr && sinceStart < p.drainSeconds + p.bootSeconds) {
        darkHosts += static_cast<double>(b.hosts);
      }
    }
    double hosts = static_cast<double>(p.hosts);
    CapacitySample s;
    s.tSeconds = now;
    if (p.zdr) {
      // Every host keeps accepting connections (the updated instance
      // answers health checks throughout).
      s.servingFraction = 1.0;
      double penalty = drainingHosts * p.takeoverCpuPenalty +
                       spikingHosts * p.takeoverSpikePenalty;
      s.idleCpuFraction = 1.0 - penalty / hosts;
    } else {
      // A draining HardRestart host fails health checks: it serves no
      // new work, and its CPU is effectively withdrawn from the pool.
      double offline = drainingHosts + darkHosts;
      s.servingFraction = (hosts - offline) / hosts;
      s.idleCpuFraction = (hosts - offline) / hosts;
    }
    samples.push_back(s);
  }
  return samples;
}

CompletionResult simulateGlobalRelease(const CompletionSimParams& p) {
  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> jitter(0.0, p.batchJitterSeconds);

  CompletionResult result;
  for (size_t c = 0; c < p.clusters; ++c) {
    size_t batchSize = std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(p.batchFraction *
                         static_cast<double>(p.hostsPerCluster))));
    size_t batches =
        (p.hostsPerCluster + batchSize - 1) / batchSize;
    double total = 0;
    for (size_t b = 0; b < batches; ++b) {
      total += p.drainSeconds + p.bootSeconds + jitter(rng);
      if (b + 1 < batches) {
        total += p.interBatchGapSeconds;
      }
    }
    result.perClusterMinutes.push_back(total / 60.0);
  }
  std::sort(result.perClusterMinutes.begin(), result.perClusterMinutes.end());
  auto q = [&](double f) {
    double pos = f * static_cast<double>(result.perClusterMinutes.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, result.perClusterMinutes.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return result.perClusterMinutes[lo] * (1 - frac) +
           result.perClusterMinutes[hi] * frac;
  };
  result.medianMinutes = q(0.5);
  result.p25Minutes = q(0.25);
  result.p75Minutes = q(0.75);
  return result;
}

std::array<double, 24> simulateRestartHourPdf(SchedulePolicy policy,
                                              size_t releases,
                                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::array<double, 24> counts{};

  for (size_t i = 0; i < releases; ++i) {
    double hour = 0;
    switch (policy) {
      case SchedulePolicy::kPeakHours: {
        // Operators push when they are at their desks and can react
        // fast (§6.2.2): mass between 12:00 and 17:00.
        std::normal_distribution<double> dist(14.5, 1.3);
        hour = dist(rng);
        while (hour < 10.0 || hour > 19.0) {
          hour = dist(rng);
        }
        break;
      }
      case SchedulePolicy::kContinuous: {
        // ~100 releases/week: always something restarting, with only a
        // mild working-hours bump.
        std::uniform_real_distribution<double> base(0.0, 24.0);
        std::bernoulli_distribution bump(0.25);
        hour = base(rng);
        if (bump(rng)) {
          std::normal_distribution<double> work(14.0, 3.0);
          hour = work(rng);
          while (hour < 0 || hour >= 24) {
            hour = base(rng);
          }
        }
        break;
      }
      case SchedulePolicy::kOffPeak: {
        std::normal_distribution<double> dist(3.0, 1.5);  // dead of night
        hour = dist(rng);
        while (hour < 0) {
          hour += 24;
        }
        while (hour >= 24) {
          hour -= 24;
        }
        break;
      }
    }
    counts[static_cast<size_t>(hour) % 24] += 1.0;
  }
  double total = 0;
  for (double c : counts) {
    total += c;
  }
  if (total > 0) {
    for (double& c : counts) {
      c /= total;
    }
  }
  return counts;
}

double reconnectCpuFraction(const ReconnectCpuParams& p) {
  double restartedProxies =
      p.proxyFractionRestarted * static_cast<double>(p.proxies);
  double reconnects = restartedProxies * p.connectionsPerProxy;
  double cpuSecondsNeeded = reconnects * p.handshakeCpuSeconds;
  double cpuSecondsAvailable =
      p.appTierCpuCapacity * p.reconnectWindowSeconds;
  return cpuSecondsNeeded / cpuSecondsAvailable;
}

FaultSweepResult simulateReleaseUnderFaults(const FaultModelParams& p) {
  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  FaultSweepResult r;
  double unitsTouched = 0;
  double unitsDisrupted = 0;

  for (size_t host = 0; host < p.hosts; ++host) {
    ++r.hostsRestarted;
    unitsTouched += p.tunnelsPerHost + p.postsInFlightPerHost;

    // Phase 1: Socket Takeover handoff. An aborted handoff degrades to
    // a hard restart — every connection the host carried is reset.
    if (p.takeoverAbortProb > 0 && unit(rng) < p.takeoverAbortProb) {
      ++r.takeoverAborts;
      r.tunnelsDropped += static_cast<uint64_t>(p.tunnelsPerHost);
      r.postsFailed += static_cast<uint64_t>(p.postsInFlightPerHost);
      unitsDisrupted += p.tunnelsPerHost + p.postsInFlightPerHost;
      continue;
    }

    // Phase 2: DCR. The solicitation is re-sent until one transmission
    // survives or retries run out; only total loss drops the tunnels.
    if (p.solicitationLossProb > 0) {
      bool delivered = false;
      for (int attempt = 0; attempt <= p.solicitationRetries; ++attempt) {
        if (unit(rng) >= p.solicitationLossProb) {
          delivered = true;
          break;
        }
        if (attempt < p.solicitationRetries) {
          ++r.solicitationRetriesUsed;
        }
      }
      if (!delivered) {
        r.tunnelsDropped += static_cast<uint64_t>(p.tunnelsPerHost);
        unitsDisrupted += p.tunnelsPerHost;
      }
    }

    // Phase 3: PPR. Each in-flight POST replays independently.
    if (p.pprReplayFailProb > 0) {
      uint64_t posts = static_cast<uint64_t>(p.postsInFlightPerHost);
      for (uint64_t i = 0; i < posts; ++i) {
        if (unit(rng) < p.pprReplayFailProb) {
          ++r.postsFailed;
          unitsDisrupted += 1;
        }
      }
    }
  }

  r.disruptionFraction =
      unitsTouched > 0 ? unitsDisrupted / unitsTouched : 0.0;
  return r;
}

double tailLatencyInflation(double offeredLoad, double capacityFraction) {
  // Single-queue approximation: p99 sojourn time scales with
  // 1/(1-utilization). utilization = offeredLoad / capacityFraction.
  double baselineUtil = offeredLoad;
  double util = offeredLoad / std::max(capacityFraction, 1e-9);
  if (util >= 1.0) {
    return 1e9;  // saturated: unbounded queueing
  }
  return (1.0 - baselineUtil) / (1.0 - util);
}

}  // namespace zdr::sim
