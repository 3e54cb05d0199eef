// IoUringBackend: io_uring readiness backend for EventLoop.
//
// Built on the raw syscalls (io_uring_setup/enter) + mmap'd rings — no
// liburing dependency. Design points:
//
//  * Readiness with exact level-triggered parity: every watched fd is
//    covered by a ONESHOT IORING_OP_POLL_ADD. When its CQE is reaped
//    the fd goes on a re-arm list and is re-polled at the top of the
//    next wait(); POLL_ADD checks current readiness at arm time, so a
//    handler that leaves data buffered is re-notified immediately —
//    identical to level-triggered epoll. (Multishot poll was rejected
//    here: it only re-fires on new wake events, which is edge
//    semantics and would deadlock consumers that drain partially.)
//    Idle fds cost nothing after the initial arm: re-arm SQEs scale
//    with *active* fds, not registered ones.
//  * One io_uring_enter per wakeup: all pending SQEs (re-arms,
//    cancels) ride the same enter that waits for CQEs, with an
//    IORING_ENTER_EXT_ARG timeout. CQEs are harvested from the shared
//    ring without syscalls.
//  * Stale-completion safety: poll user_data carries a generation
//    drawn from a global counter; modifyFd/removeFd bump the
//    generation and cancel the in-flight poll, so a CQE from a
//    previous registration of the same fd number is dropped.
//
// Requires IORING_FEAT_EXT_ARG (kernel 5.11+) for timed waits;
// ioUringSupported() reports false on anything older and EventLoop
// falls back to epoll.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "netcore/fd_guard.h"
#include "netcore/io_backend.h"

struct io_uring_sqe;
struct io_uring_cqe;

namespace zdr {

// One-time process-wide probe: can this kernel run the io_uring
// backend (syscall present, not seccomp-filtered, EXT_ARG supported)?
[[nodiscard]] bool ioUringSupported() noexcept;

class IoUringBackend final : public IoBackend {
 public:
  // Throws on setup failure; call ioUringSupported() first.
  IoUringBackend();
  ~IoUringBackend() override;

  [[nodiscard]] const char* name() const noexcept override {
    return "io_uring";
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
  struct FdState {
    uint32_t events = 0;    // requested interest mask
    uint32_t gen = 0;       // generation of the armed poll (0 = none)
    bool armed = false;     // a POLL_ADD for `gen` is in flight
    bool rearmQueued = false;
    bool internal = false;  // wake eventfd: drained, never reported
  };

  io_uring_sqe* getSqe();
  void pushPoll(int fd, FdState& st);
  void pushCancel(uint64_t targetUserData);
  void flushSubmissions();
  int enter(unsigned toSubmit, unsigned minComplete, unsigned flags,
            const void* arg, size_t argsz) noexcept;
  int reap(std::vector<IoEvent>& events);

  FdGuard ringFd_;
  FdGuard wakeFd_;  // eventfd, registered as an internal polled fd

  // Mapped ring state (raw pointers into the two mmaps).
  void* sqRing_ = nullptr;
  size_t sqRingSize_ = 0;
  void* cqRing_ = nullptr;  // == sqRing_ under IORING_FEAT_SINGLE_MMAP
  size_t cqRingSize_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  size_t sqesSize_ = 0;
  unsigned* sqHead_ = nullptr;
  unsigned* sqTail_ = nullptr;
  unsigned sqMask_ = 0;
  unsigned sqEntries_ = 0;
  unsigned* sqArray_ = nullptr;
  unsigned* cqHead_ = nullptr;
  unsigned* cqTail_ = nullptr;
  unsigned cqMask_ = 0;
  io_uring_cqe* cqes_ = nullptr;

  unsigned toSubmit_ = 0;  // SQEs queued since the last enter

  std::map<int, FdState> fds_;
  std::vector<int> rearm_;  // fds whose poll must be re-armed

  uint32_t nextGen_ = 1;
  IoBackendStats stats_;
};

}  // namespace zdr
