// Active health checking of L7 backends.
//
// Katran continuously health-checks each L7LB (§4.1). A HardRestart
// instance fails its checks and is pulled from the routing ring; a
// Socket Takeover instance keeps answering them ("the new instance
// takes over the responsibility of responding to health-check probes",
// step F) so L4 never notices the release.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "netcore/connection.h"

namespace zdr::l4lb {

struct BackendTarget {
  std::string name;
  SocketAddr addr;
};

class HealthChecker {
 public:
  struct Options {
    Duration interval = Duration{200};
    Duration probeTimeout = Duration{500};
    int failThreshold = 2;  // consecutive fails to mark down
    int riseThreshold = 1;  // consecutive passes to mark up
    // HTTP probe path (pass on a 200). Empty: a TCP-connect probe that
    // passes on a connect with no error, for non-HTTP backends (MQTT).
    std::string path = "/__health";
  };

  // `onChange` fires whenever the healthy set changes.
  using ChangeCallback = std::function<void()>;

  // `transitions` counts up/down flips. The owner names it, so each
  // tier's checks stay apart in /__stats: the L4 bumps
  // "l4.hc_transitions", an origin "<origin>.app_hc_transitions".
  HealthChecker(EventLoop& loop, std::vector<BackendTarget> targets,
                Options opts, ChangeCallback onChange,
                Counter* transitions = nullptr);
  ~HealthChecker();
  HealthChecker(const HealthChecker&) = delete;
  HealthChecker& operator=(const HealthChecker&) = delete;

  [[nodiscard]] bool isHealthy(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> healthyNames() const;
  [[nodiscard]] std::vector<BackendTarget> healthyTargets() const;
  [[nodiscard]] size_t healthyCount() const;

  // Mark all targets healthy without probing (test convenience).
  void assumeAllHealthy();

 private:
  struct State {
    BackendTarget target;
    bool healthy = false;
    int consecutiveFails = 0;
    int consecutivePasses = 0;
    bool probeInFlight = false;
  };

  void probeAll();
  void probeOne(size_t idx);
  void onProbeResult(size_t idx, bool pass);

  EventLoop& loop_;
  Options opts_;
  ChangeCallback onChange_;
  Counter* transitions_;
  // Probes run on loop_'s thread, but the healthy-set accessors are
  // called from proxy worker threads; states_ is guarded throughout.
  mutable std::mutex mutex_;
  std::vector<State> states_;
  EventLoop::TimerId timer_ = 0;
  std::shared_ptr<bool> alive_;  // guards async probe completions
  // Outstanding probe connections; closed on destruction so their
  // callback cycles are broken even mid-probe.
  std::set<ConnectionPtr> probes_;
};

}  // namespace zdr::l4lb
