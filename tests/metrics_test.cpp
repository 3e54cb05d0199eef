// Metrics instrumentation: counters, gauges, histograms, time series,
// registry, CPU probes, hot-path hdr histograms, span rendering, and
// the release timeline. The ring under the span sinks has its own suite
// (seqlock_ring_test.cpp).
#include <gtest/gtest.h>

#include <thread>

#include "metrics/metrics.h"
#include "metrics/stats_json.h"

namespace zdr {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) {
        c.add();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(10.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(HistogramTest, QuantilesOfKnownDistribution) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.record(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1);
  EXPECT_DOUBLE_EQ(h.max(), 100);
  EXPECT_NEAR(h.quantile(0.5), 50.5, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99, 1.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.mean(), 0);
}

TEST(HistogramTest, RecordAfterQuantileStillSorted) {
  Histogram h;
  h.record(10);
  EXPECT_EQ(h.quantile(1.0), 10);
  h.record(5);  // must re-sort lazily
  EXPECT_EQ(h.quantile(0.0), 5);
  EXPECT_EQ(h.quantile(1.0), 10);
}

TEST(TimeSeriesTest, MeanOverWindow) {
  TimeSeries ts;
  ts.record(0.0, 10);
  ts.record(1.0, 20);
  ts.record(2.0, 30);
  ts.record(3.0, 40);
  EXPECT_DOUBLE_EQ(ts.meanOver(1.0, 3.0), 25.0);  // [1,3) → 20, 30
  EXPECT_DOUBLE_EQ(ts.meanOver(10.0, 20.0), 0.0);
  EXPECT_EQ(ts.points().size(), 4u);
}

TEST(RegistryTest, StableInstrumentIdentity) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3u);  // same instrument
  EXPECT_EQ(&reg.counter("x"), &a);
}

TEST(RegistryTest, SnapshotCoversCountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("reqs").add(7);
  reg.gauge("cpu").set(0.5);
  auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("counter.reqs"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("gauge.cpu"), 0.5);
}

TEST(RegistryTest, CounterNamesEnumerated) {
  MetricsRegistry reg;
  reg.counter("a").add();
  reg.counter("b").add();
  auto names = reg.counterNames();
  EXPECT_EQ(names.size(), 2u);
}

TEST(CpuProbeTest, ThreadCpuAdvancesUnderWork) {
  double before = threadCpuSeconds();
  burnCpu(20000);
  double after = threadCpuSeconds();
  EXPECT_GT(after, before);
}

TEST(CpuProbeTest, BurnScalesRoughlyLinearly) {
  double t0 = threadCpuSeconds();
  burnCpu(5000);
  double small = threadCpuSeconds() - t0;
  t0 = threadCpuSeconds();
  burnCpu(50000);
  double large = threadCpuSeconds() - t0;
  EXPECT_GT(large, small * 3);  // generous: schedulers add noise
}

TEST(MaxGaugeTest, KeepsHighWatermark) {
  MaxGauge g;
  g.update(3);
  g.update(10);
  g.update(7);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MaxGaugeTest, ConcurrentUpdatesKeepTrueMax) {
  MaxGauge g;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 5000; ++i) {
        g.update(t * 10000 + i);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(g.value(), (kThreads - 1) * 10000 + 4999);
}

TEST(HdrHistogramTest, QuantilesWithinRelativeErrorBound) {
  HdrHistogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.record(i);  // e.g. microseconds
  }
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.mean(), 5000.5, 0.01);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 10000.0);
  // Log-linear buckets bound relative error by 2/kSubBuckets ≈ 3.2%.
  EXPECT_NEAR(h.quantile(0.5), 5000, 5000 * 0.04);
  EXPECT_NEAR(h.quantile(0.99), 9900, 9900 * 0.04);
  EXPECT_NEAR(h.quantile(1.0), 10000, 10000 * 0.04);
}

TEST(HdrHistogramTest, SubUnitResolution) {
  HdrHistogram h;
  h.record(0.004);  // 4 ticks at 1000 ticks/unit
  h.record(0.008);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_NEAR(h.mean(), 0.006, 1e-9);
  EXPECT_NEAR(h.quantile(0.0), 0.004, 0.001);
}

TEST(HdrHistogramTest, SlotRoundTripMonotonic) {
  // slotFor must be monotonic and slotMidpoint must land inside the
  // slot it names.
  size_t prev = 0;
  for (uint64_t t = 0; t < (1ull << 22); t = t * 2 + 1) {
    size_t s = HdrHistogram::slotFor(t);
    EXPECT_GE(s, prev);
    prev = s;
    double mid = HdrHistogram::slotMidpoint(s);
    EXPECT_EQ(HdrHistogram::slotFor(static_cast<uint64_t>(mid)), s);
  }
}

TEST(HdrHistogramTest, MergeFromCombinesWorkers) {
  HdrHistogram a;
  HdrHistogram b;
  for (int i = 0; i < 100; ++i) {
    a.record(10);
    b.record(1000);
  }
  HdrHistogram merged;
  merged.mergeFrom(a);
  merged.mergeFrom(b);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_NEAR(merged.mean(), 505.0, 0.5);
  EXPECT_DOUBLE_EQ(merged.min(), 10.0);
  EXPECT_NEAR(merged.quantile(0.99), 1000, 1000 * 0.04);
}

TEST(HdrHistogramTest, ConcurrentRecordLossless) {
  HdrHistogram h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 1; i <= kRecords; ++i) {
        h.record(i % 1000);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kRecords);
}

TEST(TraceTest, IdsAreUniqueAndNonZero) {
  uint64_t a = trace::newId();
  uint64_t b = trace::newId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST(TraceTest, HeaderRoundTrip) {
  std::string hdr = trace::formatTraceHeader(0xabcdef123, 0x42);
  uint64_t t = 0;
  uint64_t s = 0;
  ASSERT_TRUE(trace::parseTraceHeader(hdr, t, s));
  EXPECT_EQ(t, 0xabcdef123u);
  EXPECT_EQ(s, 0x42u);
}

TEST(TraceTest, ParseRejectsGarbage) {
  uint64_t t = 0;
  uint64_t s = 0;
  EXPECT_FALSE(trace::parseTraceHeader("", t, s));
  EXPECT_FALSE(trace::parseTraceHeader("deadbeef", t, s));
  EXPECT_FALSE(trace::parseTraceHeader("xyz-42", t, s));
  EXPECT_FALSE(trace::parseTraceHeader("-", t, s));
}

TEST(TraceTest, InstanceInterningIsStable) {
  uint32_t a = trace::internInstance("metrics-test-instance-a");
  uint32_t b = trace::internInstance("metrics-test-instance-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(trace::internInstance("metrics-test-instance-a"), a);
  EXPECT_EQ(trace::instanceName(a), "metrics-test-instance-a");
}

trace::Span makeSpan(uint64_t traceId, uint64_t spanId) {
  trace::Span s;
  s.traceId = traceId;
  s.spanId = spanId;
  s.parentId = spanId / 2;
  s.kind = static_cast<uint32_t>(trace::SpanKind::kEdgeRequest);
  s.startNs = spanId * 10;
  s.endNs = spanId * 10 + 5;
  s.detail = 200;
  return s;
}

TEST(TracingGateTest, DisabledGateObservable) {
  ASSERT_TRUE(trace::tracingEnabled());  // default on
  trace::setTracingEnabled(false);
  EXPECT_FALSE(trace::tracingEnabled());
  trace::setTracingEnabled(true);
}

TEST(TimelineTest, WindowsPairBeginEnd) {
  PhaseTimeline tl;
  tl.begin("edge0", "zdr_drain", "trace");
  tl.point("edge0", "drain_early_exit");
  tl.end("edge0", "zdr_drain");
  tl.begin("edge0", "restart");
  auto wins = tl.windows();
  ASSERT_EQ(wins.size(), 2u);
  EXPECT_EQ(wins[0].phase, "zdr_drain");
  EXPECT_LE(wins[0].beginNs, wins[0].endNs);
  EXPECT_NE(wins[0].endNs, UINT64_MAX);
  EXPECT_EQ(wins[1].phase, "restart");
  EXPECT_EQ(wins[1].endNs, UINT64_MAX);  // still open
  EXPECT_TRUE(tl.hasEvent("edge0", "drain_early_exit"));
  EXPECT_FALSE(tl.hasEvent("edge1", "drain_early_exit"));
}

TEST(TimelineTest, UnmatchedEndIsIgnored) {
  PhaseTimeline tl;
  tl.end("a", "p");
  EXPECT_TRUE(tl.windows().empty());
  EXPECT_EQ(tl.events().size(), 1u);
}

TEST(TimelineTest, JsonExportContainsEventsAndWindows) {
  PhaseTimeline tl;
  tl.begin("origin0", "app_drain", "detail \"quoted\"");
  tl.end("origin0", "app_drain");
  std::string json = tl.toJson();
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"windows\""), std::string::npos);
  EXPECT_NE(json.find("app_drain"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(RegistryTest, SnapshotCoversEveryInstrumentKind) {
  MetricsRegistry reg;
  reg.counter("reqs").add(7);
  reg.gauge("cpu").set(0.5);
  reg.maxGauge("peak_inflight").update(12);
  reg.histogram("lat").record(5);
  reg.histogram("lat").record(15);
  reg.hdr("fast_lat").record(100);
  reg.series("rps").record(0.0, 50);
  reg.series("rps").record(1.0, 70);
  auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.at("counter.reqs"), 7.0);
  EXPECT_DOUBLE_EQ(snap.at("gauge.cpu"), 0.5);
  EXPECT_DOUBLE_EQ(snap.at("peak.peak_inflight"), 12.0);
  EXPECT_DOUBLE_EQ(snap.at("hist.lat.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("hist.lat.mean"), 10.0);
  EXPECT_DOUBLE_EQ(snap.at("hdr.fast_lat.count"), 1.0);
  EXPECT_GT(snap.at("hdr.fast_lat.p50"), 0.0);
  EXPECT_DOUBLE_EQ(snap.at("series.rps.count"), 2.0);
  EXPECT_DOUBLE_EQ(snap.at("series.rps.last"), 70.0);
}

TEST(RegistryTest, CollectSpansDrainsEverySink) {
  MetricsRegistry reg;
  reg.spanSink("edge.w0", 16).record(makeSpan(1, 1));
  reg.spanSink("edge.w1", 16).record(makeSpan(1, 2));
  auto spans = reg.collectSpans();
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(reg.spanSinkNames().size(), 2u);
}

TEST(StatsJsonTest, RenderedSnapshotHasEverySection) {
  MetricsRegistry reg;
  reg.counter("edge.requests").add(3);
  reg.gauge("edge.cpu").set(0.25);
  reg.maxGauge("edge.w0.inflight_peak").update(9);
  reg.hdr("edge.w0.request_us").record(120);
  reg.hdr("edge.w1.request_us").record(480);
  reg.spanSink("edge.w0", 16).record(makeSpan(5, 1));
  reg.timeline().begin("edge", "zdr_drain");
  reg.timeline().end("edge", "zdr_drain");

  stats::StatsOptions so;
  so.instance = "edge";
  std::string json = stats::renderStatsJson(reg, so);
  for (const char* key :
       {"\"instance\"", "\"counters\"", "\"gauges\"", "\"peaks\"",
        "\"hdr\"", "\"hdr_merged\"", "\"spans\"", "\"timeline\"",
        "\"edge.requests\"", "\"edge.w0\"", "zdr_drain"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  // Worker histograms merge across the ".w<i>." segment.
  EXPECT_NE(json.find("\"edge.request_us\""), std::string::npos);
}

TEST(StatsJsonTest, SpanCapKeepsMostRecent) {
  MetricsRegistry reg;
  auto& sink = reg.spanSink("origin.w0", 64);
  for (uint64_t i = 1; i <= 10; ++i) {
    sink.record(makeSpan(2, i));
  }
  stats::StatsOptions so;
  so.maxSpansPerSink = 3;
  std::string json = stats::renderStatsJson(reg, so);
  // The newest span survives the cap; the oldest is cut.
  EXPECT_NE(json.find("\"span_id\": 10"), std::string::npos);
  EXPECT_EQ(json.find("\"span_id\": 1,"), std::string::npos);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(sw.seconds(), 0.025);
  sw.restart();
  EXPECT_LT(sw.seconds(), 0.02);
}

}  // namespace
}  // namespace zdr
