// Fleet-simulator invariants: the shape claims of Figs 3a/3b/8b/15/16.
#include <gtest/gtest.h>

#include "sim/fleet_sim.h"

namespace zdr::sim {
namespace {

double minServing(const std::vector<CapacitySample>& samples) {
  double m = 1.0;
  for (const auto& s : samples) {
    m = std::min(m, s.servingFraction);
  }
  return m;
}

double minIdleCpu(const std::vector<CapacitySample>& samples) {
  double m = 1.0;
  for (const auto& s : samples) {
    m = std::min(m, s.idleCpuFraction);
  }
  return m;
}

TEST(CapacitySimTest, HardRestartLosesBatchFraction) {
  CapacitySimParams p;
  p.zdr = false;
  p.batchFraction = 0.2;
  auto samples = simulateRollingCapacity(p);
  // Fig 3a: "persistently at less than 85% capacity" for 15–20% batches.
  EXPECT_NEAR(minServing(samples), 0.8, 0.02);
  EXPECT_NEAR(minIdleCpu(samples), 0.8, 0.02);
}

TEST(CapacitySimTest, HardRestartSmallerBatchSmallerDip) {
  CapacitySimParams p5;
  p5.zdr = false;
  p5.batchFraction = 0.05;
  CapacitySimParams p20 = p5;
  p20.batchFraction = 0.2;
  // Fig 8b: degradation is linear in the batch fraction.
  EXPECT_GT(minIdleCpu(simulateRollingCapacity(p5)),
            minIdleCpu(simulateRollingCapacity(p20)));
  EXPECT_NEAR(minIdleCpu(simulateRollingCapacity(p5)), 0.95, 0.02);
}

TEST(CapacitySimTest, ZdrKeepsFullServingCapacity) {
  CapacitySimParams p;
  p.zdr = true;
  p.batchFraction = 0.2;
  auto samples = simulateRollingCapacity(p);
  EXPECT_EQ(minServing(samples), 1.0);
  // Fig 8b: "slight (within 1%) decrease in cluster's idle CPU" at
  // steady drain, slightly more during the initial spike.
  EXPECT_GT(minIdleCpu(samples), 0.97);
  EXPECT_LT(minIdleCpu(samples), 1.0);
}

TEST(CapacitySimTest, RecoveryBetweenBatches) {
  CapacitySimParams p;
  p.zdr = false;
  p.batchFraction = 0.2;
  p.interBatchGapSeconds = 300;
  auto samples = simulateRollingCapacity(p);
  // There must exist mid-release samples back at 100% (the gaps at
  // minutes 57 and 80–83 in Fig 3a).
  bool sawDip = false;
  bool sawRecovery = false;
  for (const auto& s : samples) {
    if (s.servingFraction < 0.85) {
      sawDip = true;
    } else if (sawDip && s.servingFraction == 1.0 &&
               s.tSeconds < samples.back().tSeconds - 60) {
      sawRecovery = true;
    }
  }
  EXPECT_TRUE(sawDip);
  EXPECT_TRUE(sawRecovery);
}

TEST(CompletionSimTest, ProxyReleaseAboutNinetyMinutes) {
  // Fig 16: Proxygen: 20-min drains, 5 batches ⇒ ~1.5–2 h.
  CompletionSimParams p;
  p.batchFraction = 0.2;
  p.drainSeconds = 1200;
  p.bootSeconds = 30;
  p.interBatchGapSeconds = 60;
  auto r = simulateGlobalRelease(p);
  EXPECT_GT(r.medianMinutes, 80);
  EXPECT_LT(r.medianMinutes, 150);
  EXPECT_LE(r.p25Minutes, r.medianMinutes);
  EXPECT_LE(r.medianMinutes, r.p75Minutes);
}

TEST(CompletionSimTest, AppReleaseAboutTwentyFiveMinutes) {
  // Fig 16: App Server: 10–15 s drains, many more batches but tiny
  // per-batch cost ⇒ ~25 min.
  CompletionSimParams p;
  p.batchFraction = 0.05;  // 20 batches
  p.drainSeconds = 15;
  p.bootSeconds = 45;      // HHVM boot + cache priming dominates
  p.interBatchGapSeconds = 10;
  p.batchJitterSeconds = 10;
  auto r = simulateGlobalRelease(p);
  EXPECT_GT(r.medianMinutes, 15);
  EXPECT_LT(r.medianMinutes, 40);
}

TEST(CompletionSimTest, DeterministicForSeed) {
  CompletionSimParams p;
  auto a = simulateGlobalRelease(p);
  auto b = simulateGlobalRelease(p);
  EXPECT_EQ(a.perClusterMinutes, b.perClusterMinutes);
}

TEST(ScheduleSimTest, PeakHoursPolicyConcentratesNoon) {
  auto pdf = simulateRestartHourPdf(SchedulePolicy::kPeakHours, 10000);
  double peakMass = 0;
  for (int h = 12; h <= 17; ++h) {
    peakMass += pdf[static_cast<size_t>(h)];
  }
  EXPECT_GT(peakMass, 0.8);  // Fig 15: Proxygen releases 12pm–5pm
  double nightMass = pdf[0] + pdf[1] + pdf[2] + pdf[3] + pdf[4];
  EXPECT_LT(nightMass, 0.01);
}

TEST(ScheduleSimTest, ContinuousPolicyIsNearFlat) {
  auto pdf = simulateRestartHourPdf(SchedulePolicy::kContinuous, 100000);
  double mn = 1;
  double mx = 0;
  for (double v : pdf) {
    mn = std::min(mn, v);
    mx = std::max(mx, v);
  }
  // "A fraction of App. Servers are always restarting" — every hour
  // has mass; no hour dominates.
  EXPECT_GT(mn, 0.01);
  EXPECT_LT(mx, 0.12);
}

TEST(ScheduleSimTest, PdfSumsToOne) {
  for (auto policy : {SchedulePolicy::kPeakHours, SchedulePolicy::kContinuous,
                      SchedulePolicy::kOffPeak}) {
    auto pdf = simulateRestartHourPdf(policy, 5000);
    double sum = 0;
    for (double v : pdf) {
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(ReconnectCpuTest, TenPercentRestartCostsAboutTwentyPercentCpu) {
  // §2.5 / Fig 3b: "when 10% of Origin Proxygen restart, the app.
  // cluster uses 20% of CPU cycles to rebuild state."
  ReconnectCpuParams p;  // defaults tuned to the paper's claim
  double frac = reconnectCpuFraction(p);
  EXPECT_NEAR(frac, 0.2, 0.03);
}

TEST(ReconnectCpuTest, ScalesLinearlyWithRestartFraction) {
  ReconnectCpuParams p;
  double f10 = reconnectCpuFraction(p);
  p.proxyFractionRestarted = 0.2;
  double f20 = reconnectCpuFraction(p);
  EXPECT_NEAR(f20, 2 * f10, 1e-9);
}

TEST(TailLatencyTest, CapacityLossInflatesTail) {
  double base = tailLatencyInflation(0.7, 1.0);
  EXPECT_DOUBLE_EQ(base, 1.0);
  double reduced = tailLatencyInflation(0.7, 0.9);
  EXPECT_GT(reduced, 1.2);  // §2.5: 10% capacity loss → visible tails
  double saturated = tailLatencyInflation(0.7, 0.69);
  EXPECT_GT(saturated, 1e6);
}

}  // namespace
}  // namespace zdr::sim
