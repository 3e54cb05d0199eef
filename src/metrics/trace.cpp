#include "metrics/trace.h"

#include <charconv>
#include <chrono>
#include <mutex>

namespace zdr::trace {

namespace {

std::atomic<uint64_t> g_nextId{1};
std::atomic<bool> g_enabled{true};

// Instance interning: a mutex-guarded append-only table. Interning
// happens at instance construction (cold); lookups by id happen at
// snapshot (also cold). The record path only carries the integer.
std::mutex g_internMutex;
std::vector<std::string>& internTable() {
  static std::vector<std::string> table;
  return table;
}

std::chrono::steady_clock::time_point processEpoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Touch the epoch at static-init time so nowNs() is monotone from the
// earliest possible moment.
[[maybe_unused]] const auto g_epochInit = processEpoch();

}  // namespace

uint64_t newId() { return g_nextId.fetch_add(1, std::memory_order_relaxed); }

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - processEpoch())
          .count());
}

void setTracingEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool tracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

uint32_t internInstance(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_internMutex);
  auto& table = internTable();
  for (size_t i = 0; i < table.size(); ++i) {
    if (table[i] == name) {
      return static_cast<uint32_t>(i + 1);
    }
  }
  table.push_back(name);
  return static_cast<uint32_t>(table.size());
}

std::string instanceName(uint32_t id) {
  std::lock_guard<std::mutex> lock(g_internMutex);
  auto& table = internTable();
  if (id == 0 || id > table.size()) {
    return "unknown";
  }
  return table[id - 1];
}

const char* spanKindName(SpanKind k) {
  switch (k) {
    case SpanKind::kEdgeRequest:
      return "edge.request";
    case SpanKind::kEdgeLocal:
      return "edge.local";
    case SpanKind::kEdgeUpstream:
      return "edge.upstream";
    case SpanKind::kEdgeTrunkWait:
      return "edge.trunk_wait";
    case SpanKind::kEdgeRedispatch:
      return "edge.redispatch";
    case SpanKind::kEdgeDcrResume:
      return "edge.dcr_resume";
    case SpanKind::kOriginRequest:
      return "origin.request";
    case SpanKind::kOriginAppConnect:
      return "origin.app_connect";
    case SpanKind::kOriginAppAttempt:
      return "origin.app_attempt";
    case SpanKind::kOriginPprReplay:
      return "origin.ppr_replay";
    case SpanKind::kOriginDcrReconnect:
      return "origin.dcr_reconnect";
    case SpanKind::kAppHandle:
      return "app.handle";
    case SpanKind::kAppDrainBounce:
      return "app.drain_bounce";
  }
  return "unknown";
}

std::string formatTraceHeader(uint64_t traceId, uint64_t spanId) {
  char buf[40];
  char* p = buf;
  auto hex = [&p](uint64_t v) {
    char tmp[16];
    int n = 0;
    do {
      tmp[n++] = "0123456789abcdef"[v & 0xF];
      v >>= 4;
    } while (v != 0);
    while (n > 0) {
      *p++ = tmp[--n];
    }
  };
  hex(traceId);
  *p++ = '-';
  hex(spanId);
  return {buf, static_cast<size_t>(p - buf)};
}

bool parseTraceHeader(std::string_view value, uint64_t& traceId,
                      uint64_t& spanId) {
  size_t dash = value.find('-');
  if (dash == std::string_view::npos || dash == 0 ||
      dash + 1 >= value.size()) {
    return false;
  }
  auto parseHex = [](std::string_view s, uint64_t& out) {
    auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), out, 16);
    return ec == std::errc{} && ptr == s.data() + s.size();
  };
  uint64_t t = 0;
  uint64_t sp = 0;
  if (!parseHex(value.substr(0, dash), t) ||
      !parseHex(value.substr(dash + 1), sp) || t == 0) {
    return false;
  }
  traceId = t;
  spanId = sp;
  return true;
}

}  // namespace zdr::trace
