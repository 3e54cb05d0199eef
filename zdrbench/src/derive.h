// The arithmetic that turns raw samples into reported numbers. Kept
// free of testbed types so tests/derive_test.cpp can pin every rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace zdrbench {

// Samples strictly beyond quantile q of n sorted samples, where the
// quantile is the nearest-rank value at index ceil(q*n)-1.
inline size_t samplesBeyond(size_t n, double q) {
  if (n == 0) {
    return 0;
  }
  auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::max<size_t>(rank, 1);
}

// Nearest-rank quantile of an ascending vector (0 when empty).
inline double quantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

// A percentile is only reported when at least this many samples lie
// beyond it; fewer and the value is one outlier's, not a tail.
inline constexpr size_t kMinBeyond = 10;

// Highest of the fixed tail ladder that keeps kMinBeyond samples
// beyond it; 0 when not even the median qualifies.
inline double tailQuantileFor(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samplesBeyond(n, q) >= kMinBeyond) {
      return q;
    }
  }
  return 0;
}

struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99Valid = false;   // >= kMinBeyond samples beyond p99
  double tailQ = 0;        // tailQuantileFor(n)
  double tail = 0;         // value at tailQ
};

inline LatencySummary summarize(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  LatencySummary s;
  s.n = v.size();
  s.p50 = quantileSorted(v, 0.5);
  s.p99 = quantileSorted(v, 0.99);
  s.p99Valid = samplesBeyond(s.n, 0.99) >= kMinBeyond;
  s.tailQ = tailQuantileFor(s.n);
  s.tail = s.tailQ > 0 ? quantileSorted(v, s.tailQ) : 0;
  return s;
}

// Latency over a window, robust to a stall that hits one part of it:
// the samples (in time order) are cut into the most equal parts, at
// most `maxParts`, that each keep kMinBeyond samples beyond p99, and
// the reported p50/p99 are the medians of the parts' own p50/p99. Fewer
// than kMinPartSamples samples give no valid p99.
inline constexpr size_t kMaxParts = 12;
inline constexpr size_t kMinPartSamples = 1000;  // 10 beyond p99

struct WindowedLatency {
  size_t n = 0;
  size_t parts = 0;
  double p50 = 0;
  double p99 = 0;
  [[nodiscard]] bool valid() const { return parts > 0; }
};

inline WindowedLatency windowed(const std::vector<double>& inTimeOrder,
                                size_t maxParts = kMaxParts) {
  WindowedLatency w;
  w.n = inTimeOrder.size();
  w.parts = std::min(maxParts, w.n / kMinPartSamples);
  if (w.parts == 0) {
    return w;
  }
  std::vector<double> p50s;
  std::vector<double> p99s;
  for (size_t i = 0; i < w.parts; ++i) {
    std::vector<double> part(
        inTimeOrder.begin() + static_cast<std::ptrdiff_t>(i * w.n / w.parts),
        inTimeOrder.begin() +
            static_cast<std::ptrdiff_t>((i + 1) * w.n / w.parts));
    std::sort(part.begin(), part.end());
    p50s.push_back(quantileSorted(part, 0.5));
    p99s.push_back(quantileSorted(part, 0.99));
  }
  auto med = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
  };
  w.p50 = med(p50s);
  w.p99 = med(p99s);
  return w;
}

// Open-loop latency: from when the operation was due, not from when
// the generator got round to sending it, so a generator or server stall
// charges every operation queued behind it.
inline double latencyMs(uint64_t intendedNs, uint64_t doneNs) {
  return doneNs > intendedNs ? static_cast<double>(doneNs - intendedNs) / 1e6
                             : 0.0;
}

// A ratio always travels with its base, so "0.98" can be read as
// 49/50 rather than 98k/100k.
struct Ratio {
  double num = 0;
  double base = 0;
  // 0 when there is no base (nothing to be a share of).
  [[nodiscard]] double value() const { return base > 0 ? num / base : 0.0; }
};

// Backlog (operations offered but not finished) sampled through a
// window. It grows when the last third's mean exceeds the first
// third's by more than `slack` operations: a queue that only jitters
// around a level is sustainable, one that keeps rising is not.
inline bool backlogGrowing(const std::vector<double>& samples, double slack) {
  if (samples.size() < 6) {
    return false;
  }
  size_t third = samples.size() / 3;
  double early = 0;
  double late = 0;
  for (size_t i = 0; i < third; ++i) {
    early += samples[i];
    late += samples[samples.size() - 1 - i];
  }
  early /= static_cast<double>(third);
  late /= static_cast<double>(third);
  return late - early > slack;
}

// One recorded span: the benchmark's own or one of the program's hops.
struct SpanRec {
  uint64_t traceId = 0;
  uint64_t spanId = 0;
  uint64_t parentId = 0;
  std::string layer;
  uint64_t startNs = 0;
  uint64_t endNs = 0;
};

// Self time of each layer: every span's duration minus the part of its
// interval that its children cover (overlapping children are merged
// first, and clipped to the parent). Summed per layer, in ns.
inline std::map<std::string, double> selfTimeByLayer(
    const std::vector<SpanRec>& spans) {
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
  for (const auto& s : spans) {
    if (s.parentId != 0) {
      children[s.parentId].emplace_back(s.startNs, s.endNs);
    }
  }
  std::map<std::string, double> out;
  for (const auto& s : spans) {
    if (s.endNs < s.startNs) {
      continue;
    }
    uint64_t covered = 0;
    auto it = children.find(s.spanId);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      uint64_t curLo = 0;
      uint64_t curHi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.startNs);
        hi = std::min(hi, s.endNs);
        if (hi <= lo) {
          continue;
        }
        if (open && lo <= curHi) {
          curHi = std::max(curHi, hi);
          continue;
        }
        if (open) {
          covered += curHi - curLo;
        }
        curLo = lo;
        curHi = hi;
        open = true;
      }
      if (open) {
        covered += curHi - curLo;
      }
    }
    out[s.layer] += static_cast<double>(s.endNs - s.startNs - covered);
  }
  return out;
}

}  // namespace zdrbench
