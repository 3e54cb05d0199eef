// Release timeline recorder: the §6 "normalize to the restart
// instant" methodology as a reusable subsystem.
//
// Every ZDR phase transition — takeover armed, handoff, ring adoption,
// drain start/early-exit/deadline, breaker trips, shed windows, app
// drains — is recorded as a structured, timestamped event keyed by
// instance and phase. Events share the trace clock (trace::nowNs), so
// chaos tests and experiments can ask "did this replayed request's
// span overlap a drain window?" directly, and export the whole thing
// as JSON next to the /__stats snapshot.
//
// It is the only record of drain and takeover edges: the flight
// recorder's event rings (flight_recorder.h) do not copy them.
//
// Recording is cold-path (a handful of events per release), so a
// mutex-guarded vector is the right tool; no lock-free heroics here.
// It deliberately stays out of the fixed SeqlockRing the spans and
// events share: phases and details are free-form strings (e.g. the
// broker's per-client "dcr_session_attach"), which a ring could only
// carry by interning them into the append-only process-wide table, and
// a drain window must not be lost to wraparound.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace zdr {

class PhaseTimeline {
 public:
  enum class Mark : uint8_t { kPoint, kBegin, kEnd };

  struct Event {
    std::string instance;
    std::string phase;
    Mark mark = Mark::kPoint;
    uint64_t tNs = 0;  // trace::nowNs clock
    std::string detail;
  };

  // A [begin, end) interval for one (instance, phase). An unclosed
  // begin yields endNs == UINT64_MAX (still in that phase).
  struct Window {
    std::string instance;
    std::string phase;
    uint64_t beginNs = 0;
    uint64_t endNs = UINT64_MAX;
  };

  void point(const std::string& instance, const std::string& phase,
             const std::string& detail = {});
  void begin(const std::string& instance, const std::string& phase,
             const std::string& detail = {});
  void end(const std::string& instance, const std::string& phase,
           const std::string& detail = {});

  [[nodiscard]] std::vector<Event> events() const;
  // Pairs begin/end events per (instance, phase) in order.
  [[nodiscard]] std::vector<Window> windows() const;
  // First event matching (instance, phase, mark), or nullopt-like
  // zero-time event. Convenience for tests.
  [[nodiscard]] bool hasEvent(const std::string& instance,
                              const std::string& phase) const;

  [[nodiscard]] std::string toJson() const;

  void clear();

  static const char* markName(Mark m);

 private:
  void record(const std::string& instance, const std::string& phase,
              Mark mark, const std::string& detail);

  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

}  // namespace zdr
