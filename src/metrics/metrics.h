// Lightweight metrics: counters, gauges, histograms, time series.
//
// The paper's evaluation (§6) is driven by exactly this kind of
// instrumentation: per-instance counters (HTTP status codes sent, TCP
// RSTs, MQTT connects/ACKs), gauges (CPU, RPS), and timelines
// normalized to the value right before a restart. Every experiment
// binary reads its series out of a MetricsRegistry snapshot.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "metrics/flight_recorder.h"
#include "metrics/hdr_histogram.h"
#include "metrics/timeline.h"
#include "metrics/trace.h"

namespace zdr {

namespace detail {
// std::atomic<double> has no fetch_add until C++20 libstdc++ grows
// one for FP types; this CAS loop is the single shared fallback so
// every accumulating-double instrument spins in exactly one place.
inline double atomicAddDouble(std::atomic<double>& target,
                              double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
  }
  return cur + v;
}
}  // namespace detail

// Monotonic event counter; thread-safe.
class Counter {
 public:
  void add(uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value; thread-safe.
class Gauge {
 public:
  void set(double v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(double v) noexcept { detail::atomicAddDouble(value_, v); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0};
};

// High-watermark gauge: update() keeps the largest value seen since
// the last reset. Used for peak in-flight per shard — a snapshot of an
// instantaneous gauge misses the burst that mattered.
class MaxGauge {
 public:
  void update(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

// Recorded-sample histogram with quantile queries. Samples are kept
// exactly (experiments record at most a few million points).
class Histogram {
 public:
  void record(double v) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(v);
    sorted_ = false;
  }

  [[nodiscard]] size_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
  }

  [[nodiscard]] double mean() const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.empty()) {
      return 0;
    }
    double sum = 0;
    for (double v : samples_) {
      sum += v;
    }
    return sum / static_cast<double>(samples_.size());
  }

  // q in [0,1]; e.g. 0.5, 0.99, 0.999.
  [[nodiscard]] double quantile(double q) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.empty()) {
      return 0;
    }
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    double pos = q * static_cast<double>(samples_.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples_.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1 - frac) + samples_[hi] * frac;
  }

  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
    sorted_ = false;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Timestamped series of (t, value) points; thread-safe appends.
class TimeSeries {
 public:
  struct Point {
    double tSeconds;  // relative to an experiment-defined origin
    double value;
  };

  void record(double tSeconds, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    points_.push_back({tSeconds, value});
  }

  [[nodiscard]] std::vector<Point> points() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return points_;
  }

  // Mean value over points with t in [t0, t1).
  [[nodiscard]] double meanOver(double t0, double t1) const {
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0;
    size_t n = 0;
    for (const auto& p : points_) {
      if (p.tSeconds >= t0 && p.tSeconds < t1) {
        sum += p.value;
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    points_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Point> points_;
};

// Named metric registry; instruments are created on first use and live
// for the registry's lifetime (stable pointers).
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) {
    return getOrCreate(counters_, name);
  }
  Gauge& gauge(const std::string& name) { return getOrCreate(gauges_, name); }
  Histogram& histogram(const std::string& name) {
    return getOrCreate(histograms_, name);
  }
  TimeSeries& series(const std::string& name) {
    return getOrCreate(series_, name);
  }
  MaxGauge& maxGauge(const std::string& name) {
    return getOrCreate(maxGauges_, name);
  }
  // Hot-path log-linear histogram (per-worker handles are resolved
  // once at init, like HotCounters).
  HdrHistogram& hdr(const std::string& name) {
    return getOrCreate(hdrs_, name);
  }
  // Per-worker span ring. The capacity applies on first creation only
  // (instruments are create-on-first-use with stable addresses).
  trace::SpanSink& spanSink(const std::string& name,
                            size_t capacity = 8192) {
    return getOrCreate(spanSinks_, name, capacity);
  }
  // Per-worker flight-recorder event ring (same first-creation rule).
  fr::EventRing& eventRing(const std::string& name,
                           size_t capacity = 4096) {
    return getOrCreate(eventRings_, name, capacity);
  }
  // One release timeline per registry (i.e. per testbed/fleet).
  PhaseTimeline& timeline() noexcept { return timeline_; }
  [[nodiscard]] const PhaseTimeline& timeline() const noexcept {
    return timeline_;
  }

  // Point-in-time copy of every scalar-valued instrument. Histograms
  // (both kinds) contribute count/mean/p50/p99/p999 entries, series
  // contribute count/last — nothing the registry holds is silently
  // omitted anymore.
  [[nodiscard]] std::map<std::string, double> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, double> out;
    for (const auto& [name, c] : counters_) {
      out["counter." + name] = static_cast<double>(c->value());
    }
    for (const auto& [name, g] : gauges_) {
      out["gauge." + name] = g->value();
    }
    for (const auto& [name, g] : maxGauges_) {
      out["peak." + name] = g->value();
    }
    for (const auto& [name, h] : histograms_) {
      out["hist." + name + ".count"] = static_cast<double>(h->count());
      out["hist." + name + ".mean"] = h->mean();
      out["hist." + name + ".p50"] = h->quantile(0.5);
      out["hist." + name + ".p99"] = h->quantile(0.99);
      out["hist." + name + ".p999"] = h->quantile(0.999);
    }
    for (const auto& [name, h] : hdrs_) {
      out["hdr." + name + ".count"] = static_cast<double>(h->count());
      out["hdr." + name + ".mean"] = h->mean();
      out["hdr." + name + ".p50"] = h->quantile(0.5);
      out["hdr." + name + ".p99"] = h->quantile(0.99);
      out["hdr." + name + ".p999"] = h->quantile(0.999);
    }
    for (const auto& [name, s] : series_) {
      auto pts = s->points();
      out["series." + name + ".count"] = static_cast<double>(pts.size());
      out["series." + name + ".last"] =
          pts.empty() ? 0.0 : pts.back().value;
    }
    return out;
  }

  [[nodiscard]] std::vector<std::string> counterNames() const {
    return namesOf(counters_);
  }
  [[nodiscard]] std::vector<std::string> hdrNames() const {
    return namesOf(hdrs_);
  }
  [[nodiscard]] std::vector<std::string> spanSinkNames() const {
    return namesOf(spanSinks_);
  }
  [[nodiscard]] std::vector<std::string> eventRingNames() const {
    return namesOf(eventRings_);
  }
  // Drains (non-destructively) every ring into one vector — the
  // "registry drains the sinks on snapshot" half of the tracing
  // contract. Tests and the renderers go through these.
  [[nodiscard]] std::vector<trace::Span> collectSpans() const {
    return collect(spanSinks_);
  }
  [[nodiscard]] std::vector<fr::Event> collectEvents() const {
    return collect(eventRings_);
  }

 private:
  template <typename T>
  using Instruments = std::map<std::string, std::unique_ptr<T>>;

  template <typename T, typename... Args>
  T& getOrCreate(Instruments<T>& instruments, const std::string& name,
                 Args... args) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = instruments[name];
    if (!slot) {
      slot = std::make_unique<T>(args...);
    }
    return *slot;
  }
  template <typename T>
  std::vector<std::string> namesOf(const Instruments<T>& instruments) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(instruments.size());
    for (const auto& [name, instrument] : instruments) {
      names.push_back(name);
    }
    return names;
  }
  // Snapshots run outside the map lock: the rings are lock-free and
  // their addresses are stable for the registry's lifetime.
  template <typename Record>
  std::vector<Record> collect(
      const Instruments<SeqlockRing<Record>>& rings) const {
    std::vector<const SeqlockRing<Record>*> ptrs;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ptrs.reserve(rings.size());
      for (const auto& [name, ring] : rings) {
        ptrs.push_back(ring.get());
      }
    }
    std::vector<Record> out;
    for (const auto* ring : ptrs) {
      ring->snapshot(out);
    }
    return out;
  }

  mutable std::mutex mutex_;
  Instruments<Counter> counters_;
  Instruments<Gauge> gauges_;
  Instruments<MaxGauge> maxGauges_;
  Instruments<Histogram> histograms_;
  Instruments<HdrHistogram> hdrs_;
  Instruments<TimeSeries> series_;
  Instruments<trace::SpanSink> spanSinks_;
  Instruments<fr::EventRing> eventRings_;
  PhaseTimeline timeline_;
};

// CPU-time probes used by the §6.3 overhead experiments.
double threadCpuSeconds();   // CLOCK_THREAD_CPUTIME_ID
double processCpuSeconds();  // CLOCK_PROCESS_CPUTIME_ID

// Burns roughly `units` abstract work units of CPU (calibrated to be
// small); models TLS-handshake/state-rebuild cost (§2.5).
void burnCpu(uint64_t units);

// Wall-clock stopwatch for experiment timelines.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace zdr
