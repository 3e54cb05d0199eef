// SeqlockRing contract, run over both record types it carries
// (trace::Span for the span sinks, fr::Event for the flight recorder):
// every field round-trips, including the kind<<32|instance word at its
// extremes; snapshots are oldest-first and non-destructive; wraparound
// keeps the newest window and counts the rest as dropped; capacity
// rounds up to a power of two (0 and 1 give 1); under concurrent
// writers the recorded/dropped ledger the /__stats and /__trace
// documents surface is exact, and no snapshot ever surfaces a torn
// record, even when one writer laps another.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/seqlock_ring.h"
#include "metrics/trace.h"

namespace zdr {
namespace {

// A record with every field distinct, carrying the given kind/instance.
template <typename Record>
Record sample(uint32_t kind, uint32_t instance);

template <>
trace::Span sample<trace::Span>(uint32_t kind, uint32_t instance) {
  return {11, 22, 33, kind, instance, 44, 55, 66};
}

template <>
fr::Event sample<fr::Event>(uint32_t kind, uint32_t instance) {
  return {11, kind, instance, 22, 33, 44};
}

// A record whose every ring word is `v`, so a copy mixing two records
// is detectable: its words differ.
template <typename Record>
Record uniform(uint64_t v) {
  typename Record::Words w;
  w.fill(v);
  return Record::unpack(w);
}

template <typename Record>
bool isUniform(const Record& r) {
  const auto w = r.pack();
  for (uint64_t word : w) {
    if (word != w[0]) {
      return false;
    }
  }
  return true;
}

template <typename Record>
uint64_t idOf(const Record& r) {
  return r.pack()[0];
}

template <typename Record>
class SeqlockRingTest : public ::testing::Test {};

using RecordTypes = ::testing::Types<trace::Span, fr::Event>;
TYPED_TEST_SUITE(SeqlockRingTest, RecordTypes);

TYPED_TEST(SeqlockRingTest, EveryFieldRoundTrips) {
  // kind and instance share one word; each half must survive at its
  // maximum without bleeding into the other.
  const TypeParam records[] = {
      sample<TypeParam>(UINT32_MAX, UINT32_MAX),
      sample<TypeParam>(UINT32_MAX, 0),
      sample<TypeParam>(0, UINT32_MAX),
      sample<TypeParam>(7, 9),
  };
  SeqlockRing<TypeParam> ring(8);
  for (const auto& r : records) {
    ring.record(r);
  }
  std::vector<TypeParam> out;
  EXPECT_EQ(ring.snapshot(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(out[i] == records[i]) << "record " << i;
  }
  // Non-destructive: a second snapshot sees the same records.
  std::vector<TypeParam> again;
  EXPECT_EQ(ring.snapshot(again), 4u);
  EXPECT_TRUE(again == out);
}

TYPED_TEST(SeqlockRingTest, SnapshotIsOldestFirst) {
  SeqlockRing<TypeParam> ring(64);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.record(uniform<TypeParam>(i));
  }
  std::vector<TypeParam> out;
  EXPECT_EQ(ring.snapshot(out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(out[i] == uniform<TypeParam>(i)) << "record " << i;
  }
  EXPECT_EQ(ring.recorded(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TYPED_TEST(SeqlockRingTest, WrapKeepsNewestAndCountsDropped) {
  SeqlockRing<TypeParam> ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.record(uniform<TypeParam>(i));
  }
  std::vector<TypeParam> out;
  EXPECT_EQ(ring.snapshot(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  // Records 12..19 survive, still oldest-first.
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(idOf(out[i]), 12 + i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
}

TYPED_TEST(SeqlockRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SeqlockRing<TypeParam>(0).capacity(), 1u);
  EXPECT_EQ(SeqlockRing<TypeParam>(1).capacity(), 1u);
  EXPECT_EQ(SeqlockRing<TypeParam>(2).capacity(), 2u);
  EXPECT_EQ(SeqlockRing<TypeParam>(3).capacity(), 4u);
  EXPECT_EQ(SeqlockRing<TypeParam>(100).capacity(), 128u);
  EXPECT_EQ(SeqlockRing<TypeParam>(1024).capacity(), 1024u);

  // A one-slot ring is a working ring: it keeps the newest record.
  SeqlockRing<TypeParam> ring(0);
  for (uint64_t i = 0; i < 3; ++i) {
    ring.record(uniform<TypeParam>(i));
  }
  std::vector<TypeParam> out;
  ring.snapshot(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(idOf(out[0]), 2u);
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TYPED_TEST(SeqlockRingTest, ConcurrentWritersAccountExactly) {
  // The ledger is exact, not approximate: every record is one
  // fetch_add, so N threads × M records into capacity C must leave
  // recorded == N*M and dropped == N*M − C whatever the interleaving.
  // Snapshots taken meanwhile must never block the writers nor surface
  // a record mixing two writers' words.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 4096;
  constexpr size_t kCapacity = 1024;
  SeqlockRing<TypeParam> ring(kCapacity);

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.record(uniform<TypeParam>(t * kPerThread + i));
      }
    });
  }
  size_t torn = 0;
  std::vector<TypeParam> mid;
  for (int i = 0; i < 50; ++i) {
    mid.clear();
    ring.snapshot(mid);
    for (const auto& r : mid) {
      torn += isUniform(r) ? 0 : 1;
    }
  }
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_EQ(torn, 0u) << "torn records surfaced mid-write";

  EXPECT_EQ(ring.recorded(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), kThreads * kPerThread - kCapacity);

  std::vector<TypeParam> out;
  ring.snapshot(out);
  EXPECT_LE(out.size(), kCapacity);
  EXPECT_GT(out.size(), 0u);
  std::set<uint64_t> seen;
  for (const auto& r : out) {
    EXPECT_TRUE(isUniform(r));
    EXPECT_LT(idOf(r), kThreads * kPerThread);
    EXPECT_TRUE(seen.insert(idOf(r)).second)
        << "record " << idOf(r) << " snapshotted twice";
  }
}

TYPED_TEST(SeqlockRingTest, ConcurrentSnapshotNeverTears) {
  // Four slots under two continuous writers: nearly every slot a reader
  // copies is being overwritten, and writers often lap each other,
  // which is where a torn copy would show. Dropping the reader's
  // re-check, or letting a lapped writer store into a slot a newer
  // writer owns, makes this fail within a few runs.
  SeqlockRing<TypeParam> ring(4);
  std::atomic<bool> stop{false};
  std::atomic<int> running{0};
  std::vector<std::thread> writers;
  for (uint64_t t = 1; t <= 2; ++t) {
    writers.emplace_back([&ring, &stop, &running, t] {
      running.fetch_add(1);
      for (uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
        ring.record(uniform<TypeParam>(t << 40 | i));
      }
    });
  }
  while (running.load() < 2) {
    std::this_thread::yield();
  }
  size_t copied = 0;
  size_t torn = 0;
  std::vector<TypeParam> out;
  for (int iter = 0; iter < 20000; ++iter) {
    out.clear();
    copied += ring.snapshot(out);
    for (const auto& r : out) {
      torn += isUniform(r) ? 0 : 1;
    }
  }
  stop.store(true);
  for (auto& w : writers) {
    w.join();
  }
  EXPECT_EQ(torn, 0u) << "torn records surfaced";
  EXPECT_GT(copied, 0u);
}

}  // namespace
}  // namespace zdr
