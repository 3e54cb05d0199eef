#include "release/release.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <thread>

namespace zdr::release {

namespace {
using SteadyClock = std::chrono::steady_clock;
}

size_t batchSize(size_t n, double fraction) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::ceil(static_cast<double>(n) *
                                       std::clamp(fraction, 0.01, 1.0))));
}

std::vector<RestartableHost*> restartAndWait(
    const std::vector<RestartableHost*>& hosts, Strategy strategy,
    std::chrono::milliseconds timeout, std::chrono::milliseconds pollInterval,
    const std::function<void()>& onTick) {
  for (auto* h : hosts) {
    h->beginRestart(strategy);
  }
  auto done = [](const RestartableHost* h) { return h->restartComplete(); };
  const auto start = SteadyClock::now();
  while (true) {
    std::this_thread::sleep_for(pollInterval);
    if (onTick) {
      onTick();
    }
    if (std::all_of(hosts.begin(), hosts.end(), done)) {
      return {};
    }
    if (SteadyClock::now() - start > timeout) {
      std::vector<RestartableHost*> stuck;
      std::remove_copy_if(hosts.begin(), hosts.end(),
                          std::back_inserter(stuck), done);
      return stuck;
    }
  }
}

RollingReleaseReport runRollingRelease(
    const std::vector<RestartableHost*>& hosts,
    const RollingReleaseOptions& options) {
  RollingReleaseReport report;
  report.hosts = hosts.size();
  if (hosts.empty()) {
    return report;
  }
  auto emit = [&](const std::string& e) {
    if (options.onEvent) {
      options.onEvent(e);
    }
  };

  const size_t size = batchSize(hosts.size(), options.batchFraction);
  auto start = SteadyClock::now();

  for (size_t offset = 0; offset < hosts.size(); offset += size) {
    size_t end = std::min(hosts.size(), offset + size);
    ++report.batches;
    emit("batch_start " + std::to_string(report.batches));

    std::vector<RestartableHost*> batch(hosts.begin() + offset,
                                        hosts.begin() + end);
    for (auto* h : batch) {
      emit("restart_begin " + h->hostName());
    }
    for (auto* h : restartAndWait(batch, options.strategy,
                                  options.perBatchTimeout,
                                  std::chrono::milliseconds(10))) {
      report.timedOut = true;
      report.stuckHosts.push_back(h->hostName());
      emit("host_stuck " + h->hostName());
    }
    emit("batch_done " + std::to_string(report.batches));
    if (report.timedOut) {
      break;
    }
    if (end < hosts.size() && options.interBatchGap.count() > 0) {
      std::this_thread::sleep_for(options.interBatchGap);
    }
  }

  report.totalSeconds =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  emit("release_done");
  return report;
}

}  // namespace zdr::release
