// IoBackend: the readiness core under EventLoop.
//
// EventLoop owns dispatch order, timers and cross-thread posts; the
// backend owns the kernel interface: fd interest registration, the
// blocking wait, and the cross-thread wakeup. Two implementations
// exist:
//  * EpollBackend    — level-triggered epoll, the default and the
//    fallback.
//  * IoUringBackend  — readiness through io_uring: oneshot POLL_ADD
//    re-armed after every completion (exact level-triggered parity
//    with epoll), with every re-arm batched into the one io_uring_enter
//    that waits.
//
// Selection: ZDR_IO_BACKEND=epoll|io_uring|auto (see io_stats.h).
// epoll is the default; io_uring requests degrade to epoll with one
// stderr note when the kernel lacks the syscalls (ENOSYS, seccomp) —
// the same graceful-fallback idiom as ZDR_NO_BATCHED_UDP.
#pragma once

#include <cstdint>
#include <vector>

namespace zdr {

// Backend-neutral event mask bits. Numerically identical to both the
// EPOLL* and POLL* constants for these four events (the kernel keeps
// them equal by design; static_asserts in the backend .cpp files pin
// it), so masks pass through either backend unchanged.
inline constexpr uint32_t kEvRead = 0x001;   // EPOLLIN  / POLLIN
inline constexpr uint32_t kEvWrite = 0x004;  // EPOLLOUT / POLLOUT
inline constexpr uint32_t kEvError = 0x008;  // EPOLLERR / POLLERR
inline constexpr uint32_t kEvHup = 0x010;    // EPOLLHUP / POLLHUP

// One fd readiness report out of IoBackend::wait.
struct IoEvent {
  int fd = -1;
  uint32_t events = 0;
};

// Monotonic counters for the engine bench and the loop.backend.*
// metrics family. All syscall counts are the backend's own: consumer
// read()/write() syscalls live in IoStats.
struct IoBackendStats {
  uint64_t waitSyscalls = 0;  // epoll_wait / io_uring_enter calls
  uint64_t opSyscalls = 0;    // always 0: no backend runs I/O ops; kept
                              // so EngineSample readers still compile
  uint64_t sqesSubmitted = 0;  // uring only
  uint64_t cqesReaped = 0;     // uring only
  uint64_t pollRearms = 0;     // uring only: oneshot POLL_ADD re-arms
};

class IoBackend {
 public:
  virtual ~IoBackend() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // --- fd readiness interest (level-triggered on both backends) ---
  virtual void addFd(int fd, uint32_t events) = 0;
  virtual void modifyFd(int fd, uint32_t events) = 0;
  virtual void removeFd(int fd) = 0;

  // Blocks up to timeoutMs (0 ⇒ just harvest) and appends readiness
  // events. Returns the number of events appended.
  virtual int wait(int timeoutMs, std::vector<IoEvent>& events) = 0;

  // Unblocks a concurrent wait() from another thread.
  virtual void wakeup() noexcept = 0;

  [[nodiscard]] virtual IoBackendStats stats() const noexcept = 0;
};

}  // namespace zdr
