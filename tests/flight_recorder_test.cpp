// Flight recorder unit tests: the event taxonomy round-trips through
// its name tables and the (cause, phase) detail packing; the global
// recorder gate turns recordEvent into a no-op; and the registry-level
// capture renderers emit parseable documents with decoded
// cause/phase/tag fields. The ring itself (order, wraparound, exact
// accounting, torn-read detection) is covered for both record types
// by seqlock_ring_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/json_lite.h"
#include "metrics/metrics.h"
#include "metrics/trace.h"
#include "metrics/trace_export.h"

namespace zdr::fr {
namespace {

TEST(FlightRecorderTest, EventKindNamesAreStable) {
  EXPECT_STREQ(eventKindName(EventKind::kLoopIteration), "loop.iteration");
  EXPECT_STREQ(eventKindName(EventKind::kLoopStall), "loop.stall");
  EXPECT_STREQ(eventKindName(EventKind::kTimerFire), "loop.timer_fire");
  EXPECT_STREQ(eventKindName(EventKind::kAccept), "accept");
  EXPECT_STREQ(eventKindName(EventKind::kFaultInjected), "fault.injected");
  EXPECT_STREQ(eventKindName(EventKind::kDisruption), "disruption");
}

TEST(FlightRecorderTest, DisruptionCauseNamesAreStable) {
  // kNone decodes as "unattributed" — the name the attribution checker
  // (scripts/attribute_disruptions.py) greps for and fails on.
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kNone), "unattributed");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kResetOnRestart),
               "reset_on_restart");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kTrunkAbort),
               "trunk_abort");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kDrainDeadline),
               "drain_deadline");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kShed), "shed");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kBreaker), "breaker");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kTimeout), "timeout");
  EXPECT_STREQ(disruptionCauseName(DisruptionCause::kFaultInjected),
               "fault_injected");
}

TEST(FlightRecorderTest, ReleasePhaseNamesAreStable) {
  EXPECT_STREQ(releasePhaseName(ReleasePhase::kSteady), "steady");
  EXPECT_STREQ(releasePhaseName(ReleasePhase::kDrain), "drain");
  EXPECT_STREQ(releasePhaseName(ReleasePhase::kHardDrain), "hard_drain");
  EXPECT_STREQ(releasePhaseName(ReleasePhase::kShutdown), "shutdown");
}

TEST(FlightRecorderTest, CausePhasePackingRoundTrips) {
  for (uint8_t c = 0; c <= 7; ++c) {
    for (uint8_t p = 0; p <= 3; ++p) {
      auto cause = static_cast<DisruptionCause>(c);
      auto phase = static_cast<ReleasePhase>(p);
      uint64_t detail = packCausePhase(cause, phase);
      EXPECT_EQ(causeOf(detail), cause);
      EXPECT_EQ(phaseOf(detail), phase);
    }
  }
}

TEST(FlightRecorderTest, RecorderGateAndNullRingAreNoOps) {
  // A null ring handle must be safe on the hot path.
  recordEvent(nullptr, EventKind::kAccept, 1, 0, 0, 0);

  EventRing ring(16);
  ASSERT_TRUE(recorderEnabled()) << "recorder must default to ON";
  setRecorderEnabled(false);
  recordEvent(&ring, EventKind::kAccept, 1, 0, 0, 0);
  EXPECT_EQ(ring.recorded(), 0u);
  setRecorderEnabled(true);
  recordEvent(&ring, EventKind::kAccept, 1, 0, 0, 0);
  EXPECT_EQ(ring.recorded(), 1u);
}

TEST(FlightRecorderTest, RegistryCaptureRendersDecodedEvents) {
  MetricsRegistry reg;
  uint32_t worker = trace::internInstance("w0");
  uint32_t tag = trace::internInstance("slow.handler");
  EventRing& ring = reg.eventRing("w0", 256);
  recordEvent(&ring, EventKind::kLoopStall, worker, 30'000'000, 0, tag);
  recordEvent(&ring, EventKind::kDisruption, worker, 0, 42,
              packCausePhase(DisruptionCause::kDrainDeadline,
                             ReleasePhase::kHardDrain));

  auto names = reg.eventRingNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "w0");
  EXPECT_EQ(reg.collectEvents().size(), 2u);

  TraceCaptureOptions opts;
  opts.instance = "edge0";
  testjson::Value cap = testjson::Parser::parse(renderTraceCapture(reg, opts));
  EXPECT_EQ(cap.at("schema").str, "zdr.trace_capture.v1");
  EXPECT_EQ(cap.at("instance").str, "edge0");
  const auto& w0 = cap.at("events").at("w0");
  EXPECT_EQ(w0.at("recorded").asU64(), 2u);
  EXPECT_EQ(w0.at("dropped").asU64(), 0u);
  ASSERT_EQ(w0.at("events").size(), 2u);
  const auto& stall = w0.at("events").at(0);
  EXPECT_EQ(stall.at("kind").str, "loop.stall");
  EXPECT_EQ(stall.at("tag").str, "slow.handler");
  EXPECT_EQ(stall.at("dur_ns").asU64(), 30'000'000u);
  const auto& disruption = w0.at("events").at(1);
  EXPECT_EQ(disruption.at("kind").str, "disruption");
  EXPECT_EQ(disruption.at("cause").str, "drain_deadline");
  EXPECT_EQ(disruption.at("phase").str, "hard_drain");
  EXPECT_EQ(disruption.at("trace_id").asU64(), 42u);

  // The Chrome renderer emits the same data as a loadable trace.
  testjson::Value chrome =
      testjson::Parser::parse(renderChromeTrace(reg, opts));
  EXPECT_GE(chrome.at("traceEvents").size(), 2u);
}

// Capped capture: only the most recent maxEventsPerRing events appear,
// but recorded/dropped stay exact — the bounded /__trace default.
TEST(FlightRecorderTest, CaptureCapsKeepNewestAndExactCounters) {
  MetricsRegistry reg;
  uint32_t worker = trace::internInstance("w1");
  EventRing& ring = reg.eventRing("w1", 256);
  for (uint64_t i = 0; i < 100; ++i) {
    recordEvent(&ring, EventKind::kAccept, worker, 0, 0, i);
  }
  TraceCaptureOptions opts;
  opts.instance = "edge0";
  opts.maxEventsPerRing = 10;
  testjson::Value cap = testjson::Parser::parse(renderTraceCapture(reg, opts));
  const auto& w1 = cap.at("events").at("w1");
  EXPECT_EQ(w1.at("recorded").asU64(), 100u);
  ASSERT_EQ(w1.at("events").size(), 10u);
  // The newest ten survive the cap.
  EXPECT_EQ(w1.at("events").at(0).at("detail").asU64(), 90u);
  EXPECT_EQ(w1.at("events").at(9).at("detail").asU64(), 99u);
}

}  // namespace
}  // namespace zdr::fr
