// Concury-style stateless lookup: Othello hashing over routing buckets.
//
// Concury's thesis is that an LB data plane does not need per-flow
// state to route consistently: a minimal perfect-hashing-like structure
// (Othello) answers key→backend in O(1) with two array reads and an
// XOR, in a few kilobytes total — memory independent of the number of
// live flows. We reproduce the structure faithfully:
//
//   lookup(key) = A[h_a(k)] XOR B[h_b(k)]
//
// built so the XOR relation holds for every key in the construction
// set. Our construction keys are *routing buckets* (64 per backend by
// default), each assigned to a backend by highest-random-weight
// (rendezvous) hashing so backend churn only moves the victims'
// buckets — the same minimal-disruption contract as Maglev, with
// strictly less lookup work and zero bytes of per-flow state. A flow
// key hashes to a bucket, the bucket resolves through the Othello
// arrays. Because every bucket is a construction key, lookups always
// return a live backend index (no Othello "alien key" garbage — the
// bucket indirection makes the keyset total).
//
// Construction is O(buckets × backends) and runs off the hot path: the
// control plane rebuilds on churn and swaps the finished structure in,
// exactly as Concury separates its control and data planes.
//
// ZDR_NO_STATELESS_LOOKUP=1 (or setStatelessLookupEnabled(false)) is
// the kill switch: the hybrid router falls back to Maglev + an
// always-on flow table, the behavior before stateless lookup —
// mirroring the ZDR_NO_SPLICE_RELAY idiom.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "l4lb/consistent_hash.h"
#include "l4lb/hashing.h"

namespace zdr::l4lb {

namespace detail {
inline std::atomic<bool>& statelessLookupFlag() noexcept {
  static std::atomic<bool> enabled{std::getenv("ZDR_NO_STATELESS_LOOKUP") ==
                                   nullptr};
  return enabled;
}
}  // namespace detail

// When false (ZDR_NO_STATELESS_LOOKUP=1, or
// setStatelessLookupEnabled(false)), HybridRouter routes every flow
// through Maglev plus the stateful flow table — the §5.1 LRU-pinning
// behavior this PR's hybrid policy generalizes. The scale bench flips
// this between runs to measure the same binary both ways.
inline bool statelessLookupEnabled() noexcept {
  return detail::statelessLookupFlag().load(std::memory_order_relaxed);
}
inline void setStatelessLookupEnabled(bool on) noexcept {
  detail::statelessLookupFlag().store(on, std::memory_order_relaxed);
}

class OthelloMap final : public ConsistentHash {
 public:
  struct Options {
    size_t bucketsPerBackend = 64;
    size_t minBuckets = 1024;
    size_t maxBuckets = 1 << 16;
  };

  OthelloMap() : OthelloMap(Options{}) {}
  explicit OthelloMap(Options opts) : opts_(opts) {}

  // Rebuilds bucket ownership (rendezvous over the backend names) and
  // the Othello arrays. Off the hot path; lookups against the previous
  // arrays remain valid until this returns (single-owner semantics —
  // concurrent use swaps whole OthelloMap instances instead).
  void rebuild(const std::vector<std::string>& backends) override;

  // Two array reads + XOR. Always a valid index in [0, backendCount).
  [[nodiscard]] std::optional<size_t> pick(uint64_t key) const override {
    if (count_ == 0) {
      return std::nullopt;
    }
    uint64_t bucket = hashCombine(key, kBucketSalt) & bucketMask_;
    uint64_t bk = mix64(bucket + 1);
    uint16_t v = a_[hashCombine(bk, seedA_) & maskA_] ^
                 b_[hashCombine(bk, seedB_) & maskB_];
    // By construction every bucket is a keyset member, so v < count_;
    // the modulo is a never-taken guard against memory corruption
    // turning into an out-of-bounds backend index downstream.
    return v < count_ ? v : v % count_;
  }

  [[nodiscard]] size_t backendCount() const override { return count_; }

  [[nodiscard]] size_t bucketCount() const noexcept { return buckets_; }
  [[nodiscard]] size_t memoryBytes() const noexcept {
    return (a_.size() + b_.size()) * sizeof(uint16_t);
  }
  [[nodiscard]] uint64_t rebuilds() const noexcept { return rebuilds_; }
  // Acyclicity retries across all rebuilds (expected ~0.03/rebuild at
  // the default 4x slot-to-edge ratio).
  [[nodiscard]] uint64_t seedRetries() const noexcept { return seedRetries_; }

 private:
  static constexpr uint64_t kBucketSalt = 0x5bd1e995u;

  // Attempts one acyclic Othello build of bucket→value; returns false
  // when the bipartite edge set contains a cycle under this seed pair.
  bool tryBuild(const std::vector<uint16_t>& values, uint64_t seedA,
                uint64_t seedB);

  Options opts_;
  size_t count_ = 0;
  size_t buckets_ = 0;
  uint64_t bucketMask_ = 0;
  uint64_t seedA_ = 0;
  uint64_t seedB_ = 0;
  uint64_t maskA_ = 0;
  uint64_t maskB_ = 0;
  std::vector<uint16_t> a_;
  std::vector<uint16_t> b_;
  uint64_t rebuilds_ = 0;
  uint64_t seedRetries_ = 0;
};

}  // namespace zdr::l4lb
