// Pins the arithmetic behind the benchmark's numbers (src/derive.h).
#include "derive.h"

#include <gtest/gtest.h>

#include <numeric>

namespace zdrbench {
namespace {

std::vector<double> iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(Percentile, NearestRankAndSamplesBeyond) {
  auto v = iota(1000);
  EXPECT_EQ(quantileSorted(v, 0.5), 500);
  EXPECT_EQ(quantileSorted(v, 0.99), 990);
  EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(samplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(samplesBeyond(0, 0.99), 0u);
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  EXPECT_EQ(tailQuantileFor(10000), 0.999);
  EXPECT_EQ(tailQuantileFor(9999), 0.99);
  EXPECT_EQ(tailQuantileFor(1000), 0.99);
  EXPECT_EQ(tailQuantileFor(999), 0.9);
  EXPECT_EQ(tailQuantileFor(100), 0.9);
  EXPECT_EQ(tailQuantileFor(20), 0.5);
  EXPECT_EQ(tailQuantileFor(19), 0.0);
  auto s = summarize(iota(999));
  EXPECT_FALSE(s.p99Valid);
  EXPECT_EQ(s.tailQ, 0.9);
  EXPECT_EQ(s.tail, 900);
}

TEST(Windowed, PartsEachKeepTenBeyondP99) {
  EXPECT_FALSE(windowed(iota(999)).valid());
  auto one = windowed(iota(1999));
  EXPECT_EQ(one.parts, 1u);
  EXPECT_EQ(one.p99, quantileSorted(iota(1999), 0.99));
  EXPECT_EQ(windowed(iota(6000)).parts, 6u);
  EXPECT_EQ(windowed(iota(50000)).parts, kMaxParts);
  EXPECT_EQ(windowed(iota(50000), 1).parts, 1u);  // one whole window
}

TEST(Windowed, StallInOnePartDoesNotMoveTheMedian) {
  // Three parts of 1000 flat 1 ms samples; a 100 ms stall hits the
  // tail of the second part only.
  std::vector<double> v(3000, 1.0);
  for (size_t i = 1980; i < 2000; ++i) {
    v[i] = 100.0;
  }
  auto w = windowed(v);
  ASSERT_EQ(w.parts, 3u);
  EXPECT_EQ(w.p99, 1.0);
  EXPECT_EQ(w.p50, 1.0);
  // The whole-window p99 would have reported the stall.
  auto s = summarize(v);
  EXPECT_EQ(s.p99, 1.0);  // 20 of 3000 beyond: still under 1 %
  for (size_t i = 1950; i < 2000; ++i) {
    v[i] = 100.0;
  }
  EXPECT_EQ(summarize(v).p99, 100.0);
  EXPECT_EQ(windowed(v).p99, 1.0);
}

TEST(OpenLoop, LatencyCountsFromIntendedTimeThroughAStall) {
  // Ten ops due every 1 ms; the generator stalls for 20 ms before the
  // first send, then each takes 0.1 ms to serve, one at a time.
  const uint64_t ms = 1'000'000;
  std::vector<double> fromIntended;
  std::vector<double> fromSent;
  uint64_t free = 20 * ms;  // stall ends
  for (uint64_t i = 0; i < 10; ++i) {
    uint64_t intended = i * ms;
    uint64_t sent = std::max(intended, free);
    uint64_t done = sent + ms / 10;
    free = done;
    fromIntended.push_back(latencyMs(intended, done));
    fromSent.push_back(latencyMs(sent, done));
  }
  // Every op behind the stall is charged its wait…
  EXPECT_NEAR(fromIntended.front(), 20.1, 1e-9);
  EXPECT_NEAR(fromIntended.back(), 12.0, 1e-9);  // due at 9, done at 21
  // …which a closed-loop (from-sent) timer hides entirely.
  for (double l : fromSent) {
    EXPECT_NEAR(l, 0.1, 1e-9);
  }
  EXPECT_GT(summarize(fromIntended).p50, 10.0);
  EXPECT_EQ(latencyMs(5, 3), 0.0);  // clock skew never goes negative
}

TEST(SelfTime, SubtractsMergedChildIntervals) {
  // op [0,100): queue [0,10), edge [20,90) with origin [30,80) whose
  // two app children overlap [40,60) and [50,70).
  std::vector<SpanRec> spans = {
      {1, 10, 0, "loadgen.client", 0, 100},
      {1, 11, 10, "loadgen.queue", 0, 10},
      {1, 12, 10, "proxygen.edge", 20, 90},
      {1, 13, 12, "proxygen.origin", 30, 80},
      {1, 14, 13, "appserver", 40, 60},
      {1, 15, 13, "appserver", 50, 70},
  };
  auto self = selfTimeByLayer(spans);
  EXPECT_EQ(self["loadgen.client"], 100 - 10 - 70);
  EXPECT_EQ(self["loadgen.queue"], 10);
  EXPECT_EQ(self["proxygen.edge"], 70 - 50);
  EXPECT_EQ(self["proxygen.origin"], 50 - 30);  // [40,70) merged
  EXPECT_EQ(self["appserver"], 20 + 20);
  // Self times add back up to the root span.
  double sum = 0;
  for (const auto& [layer, ns] : self) {
    if (layer != "appserver") {
      sum += ns;
    }
  }
  EXPECT_EQ(sum + 30, 100);  // the app layer's merged coverage is 30
}

TEST(SelfTime, ClipsChildrenToTheParent) {
  std::vector<SpanRec> spans = {
      {1, 1, 0, "a", 100, 200},
      {1, 2, 1, "b", 50, 150},   // starts before the parent
      {1, 3, 1, "b", 190, 400},  // ends after it
  };
  EXPECT_EQ(selfTimeByLayer(spans)["a"], 100 - 50 - 10);
}

TEST(Ratio, CarriesItsBase) {
  Ratio r{49, 50};
  EXPECT_DOUBLE_EQ(r.value(), 0.98);
  EXPECT_EQ((Ratio{0, 0}).value(), 0.0);  // no base: nothing to share
  EXPECT_EQ((Ratio{3, 0}).value(), 0.0);
}

TEST(Backlog, JitterIsSustainableARiseIsNot) {
  std::vector<double> flat = {3, 5, 2, 6, 4, 3, 5, 2, 4, 6, 3, 5};
  EXPECT_FALSE(backlogGrowing(flat, 8));
  std::vector<double> rising;
  for (int i = 0; i < 12; ++i) {
    rising.push_back(10.0 * i);
  }
  EXPECT_TRUE(backlogGrowing(rising, 8));
  EXPECT_FALSE(backlogGrowing(rising, 100));  // within the slack
  EXPECT_FALSE(backlogGrowing({0, 100, 200}, 8));  // too few samples
}

}  // namespace
}  // namespace zdrbench
