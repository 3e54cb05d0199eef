// EpollBackend: level-triggered epoll readiness — the default IoBackend
// and the fallback when io_uring is unavailable or switched off.
#pragma once

#include <cstdint>
#include <vector>

#include "netcore/fd_guard.h"
#include "netcore/io_backend.h"

namespace zdr {

class EpollBackend final : public IoBackend {
 public:
  EpollBackend();
  ~EpollBackend() override;

  [[nodiscard]] const char* name() const noexcept override {
    return "epoll";
  }

  void addFd(int fd, uint32_t events) override;
  void modifyFd(int fd, uint32_t events) override;
  void removeFd(int fd) override;

  int wait(int timeoutMs, std::vector<IoEvent>& events) override;
  void wakeup() noexcept override;

  [[nodiscard]] IoBackendStats stats() const noexcept override {
    return stats_;
  }

 private:
  FdGuard epollFd_;
  FdGuard wakeFd_;  // eventfd; readiness consumed internally
  IoBackendStats stats_;
};

}  // namespace zdr
