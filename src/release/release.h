// Rolling-release orchestration (§2.3, §6.1).
//
// Operators roll updates in batches: each batch of instances enters
// draining, and once drained (or after the drain period) restarts with
// the new code. The two strategies compared throughout the paper:
//
//  * HardRestart — the traditional flow: the instance fails health
//    checks, takes no new connections, drains, then terminates; the
//    host contributes nothing until the new instance boots.
//  * Zero Downtime Release — Socket Takeover spins the updated
//    instance in parallel; the host keeps serving throughout.
//
// runRollingRelease is the plain, ungated batch loop (the Fig 3 drill).
// ReleaseController (release_controller.h) is the one stateful
// orchestrator: SLO-gated stages, pause, rollback. Both size batches
// with batchSize() and restart through restartAndWait().
//
// Both block the calling thread, which must not be an event-loop
// thread; hosts expose an asynchronous restart that reports completion.
#pragma once

#include <chrono>
#include <functional>
#include <string>
#include <vector>

namespace zdr::release {

enum class Strategy : uint8_t { kHardRestart, kZeroDowntime };

// Anything the rolling release can restart (proxy host, app host).
class RestartableHost {
 public:
  virtual ~RestartableHost() = default;
  [[nodiscard]] virtual std::string hostName() const = 0;
  // Kicks off a restart with the given strategy. Non-blocking.
  virtual void beginRestart(Strategy strategy) = 0;
  // True once the restart has fully completed (old instance gone, new
  // instance serving).
  [[nodiscard]] virtual bool restartComplete() const = 0;
};

struct RollingReleaseOptions {
  Strategy strategy = Strategy::kZeroDowntime;
  // Fraction of hosts restarted per batch (paper tests 5% and 20%).
  double batchFraction = 0.2;
  // Pause between batches (the "minutes 57 and 80–83" gaps of Fig 3a).
  std::chrono::milliseconds interBatchGap{0};
  // Safety valve for a stuck host.
  std::chrono::milliseconds perBatchTimeout{30000};
  // Observer invoked as the release progresses (for timelines).
  std::function<void(const std::string& event)> onEvent;
};

struct RollingReleaseReport {
  size_t hosts = 0;
  size_t batches = 0;
  double totalSeconds = 0;
  bool timedOut = false;
  // Hosts whose restart had not completed when their batch hit
  // perBatchTimeout (each is also reported via onEvent as
  // "host_stuck <name>"). The release stops after a stuck batch —
  // rolling further on top of an unhealthy fleet compounds the damage.
  std::vector<std::string> stuckHosts;
};

// Hosts per batch: ceil(n × fraction), the fraction clamped to
// [0.01, 1], never fewer than one host.
[[nodiscard]] size_t batchSize(size_t n, double fraction);

// The one restart-and-wait primitive. Begins a restart of every host in
// `hosts`, then polls: sleep `pollInterval`, call `onTick` (if set),
// check completion, check `timeout`. Returns the hosts whose restart
// was still incomplete at the timeout; empty means every restart
// completed. Blocking, like the loops built on it.
std::vector<RestartableHost*> restartAndWait(
    const std::vector<RestartableHost*>& hosts, Strategy strategy,
    std::chrono::milliseconds timeout, std::chrono::milliseconds pollInterval,
    const std::function<void()>& onTick = {});

// Blocking: rolls the update across `hosts` in batches. Call from a
// driver thread, never from an event-loop thread.
RollingReleaseReport runRollingRelease(
    const std::vector<RestartableHost*>& hosts,
    const RollingReleaseOptions& options);

}  // namespace zdr::release
