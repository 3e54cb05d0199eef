// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates one table/figure of the paper and prints the same
// rows/series the paper reports (paper-vs-measured is recorded in
// EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace zdr::bench {

// Smoke mode (ZDR_BENCH_SMOKE=1): CI runs every figure bench end-to-end
// to catch crashes and API drift without paying full measurement time.
// Numbers printed under smoke mode are NOT figure-quality.
inline bool smokeMode() {
  static const bool on = [] {
    const char* v = std::getenv("ZDR_BENCH_SMOKE");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return on;
}

// Route every round/duration constant through this so the smoke pass
// still exercises the same code path with minimal iterations.
template <typename T>
inline T scaled(T full, T smoke = T{1}) {
  return smokeMode() ? smoke : full;
}

// Connection-fleet sizing for the closed-loop throughput benches: the
// smoke pass caps the fleet (and with it per-cell wall time and fd
// pressure) so the whole CI run stays well under a minute.
inline size_t scaledConnections(size_t full, size_t smokeCap = 4) {
  return smokeMode() ? std::min(full, smokeCap) : full;
}

inline void banner(const std::string& figure, const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

inline void row(const std::string& label, double value,
                const std::string& unit = "") {
  std::printf("%-44s %12.4f %s\n", label.c_str(), value, unit.c_str());
}

inline void sleepMs(long ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Polls `pred` until true or timeout; returns whether it became true.
inline bool waitUntil(const std::function<bool()>& pred, long timeoutMs,
                      long stepMs = 5) {
  for (long t = 0; t < timeoutMs; t += stepMs) {
    if (pred()) {
      return true;
    }
    sleepMs(stepMs);
  }
  return pred();
}

// Little's law for a closed loop: `connections` clients with one
// request in flight each complete about connections × seconds ÷ mean
// latency requests in a window. Whatever a client does between a
// response and its next request (the generator's re-launch) sits
// outside the measured latency; when it dominates, far fewer requests
// complete than the latencies predict while the reported latency still
// looks healthy. Returns completed ÷ predicted: 1.0 when every cycle
// is measured latency.
inline double littleRatio(uint64_t completed, size_t connections,
                          double seconds, double meanLatencyMs) {
  if (connections == 0 || seconds <= 0 || meanLatencyMs <= 0) {
    return 0;
  }
  const double predicted = static_cast<double>(connections) * seconds *
                           1000.0 / meanLatencyMs;
  return static_cast<double>(completed) / predicted;
}

// The closed-loop benches fail when littleRatio leaves 1 ± this: up to
// 30% of each cycle may go to the generator's own callback and
// re-launch, and a stall that eats more than that is a harness
// artifact, not a measurement.
inline constexpr double kLittleTolerance = 0.30;

inline bool littleRatioOk(double ratio) {
  return ratio >= 1.0 - kLittleTolerance && ratio <= 1.0 + kLittleTolerance;
}

// Samples `fn` every intervalMs for durationMs; returns (tSec, value).
inline std::vector<std::pair<double, double>> sampleTimeline(
    const std::function<double()>& fn, long durationMs, long intervalMs) {
  std::vector<std::pair<double, double>> out;
  auto start = std::chrono::steady_clock::now();
  while (true) {
    auto now = std::chrono::steady_clock::now();
    double t = std::chrono::duration<double>(now - start).count();
    if (t * 1000 > static_cast<double>(durationMs)) {
      break;
    }
    out.emplace_back(t, fn());
    sleepMs(intervalMs);
  }
  return out;
}

}  // namespace zdr::bench
