// Process-wide socket I/O counters and the I/O backend choice.
//
// The counters exist so the benches can report syscalls and copied
// bytes per request without strace. They are plain relaxed atomics:
// cheap enough to leave on unconditionally, precise enough for
// before/after ratios.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>

#include "metrics/hdr_histogram.h"

namespace zdr {

struct IoStats {
  std::atomic<uint64_t> readCalls{0};
  std::atomic<uint64_t> readvCalls{0};
  std::atomic<uint64_t> writeCalls{0};
  std::atomic<uint64_t> writevCalls{0};
  std::atomic<uint64_t> bytesRead{0};
  std::atomic<uint64_t> bytesWritten{0};

  // Datagram plane. "Scalar" counts the single-datagram recvfrom/sendto
  // calls (UdpSocket::recvFrom/sendTo), "batch" counts recvmmsg/sendmmsg
  // calls; udpDatagrams is datagrams actually moved either way, so
  // syscalls-per-datagram falls out of these three.
  std::atomic<uint64_t> udpScalarSyscalls{0};
  std::atomic<uint64_t> udpBatchSyscalls{0};
  std::atomic<uint64_t> udpDatagrams{0};
  // Batch-fill distribution: datagrams moved per batched syscall.
  HdrHistogram udpDatagramsPerSyscall;

  // Always 0: no code path splices; kept so zdrbench's
  // netcore.splice_share still compiles.
  std::atomic<uint64_t> spliceCalls{0};
  std::atomic<uint64_t> spliceBytes{0};

  void reset() noexcept {
    readCalls = 0;
    readvCalls = 0;
    writeCalls = 0;
    writevCalls = 0;
    bytesRead = 0;
    bytesWritten = 0;
    udpScalarSyscalls = 0;
    udpBatchSyscalls = 0;
    udpDatagrams = 0;
    udpDatagramsPerSyscall.reset();
    spliceCalls = 0;
    spliceBytes = 0;
  }
  [[nodiscard]] uint64_t totalWriteSyscalls() const noexcept {
    return writeCalls.load(std::memory_order_relaxed) +
           writevCalls.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t totalReadSyscalls() const noexcept {
    return readCalls.load(std::memory_order_relaxed) +
           readvCalls.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t totalUdpSyscalls() const noexcept {
    return udpScalarSyscalls.load(std::memory_order_relaxed) +
           udpBatchSyscalls.load(std::memory_order_relaxed);
  }
  // Bytes that crossed a userspace buffer (copied at least once each
  // way); copy-bytes/req = copiedBytes() / requests.
  [[nodiscard]] uint64_t copiedBytes() const noexcept {
    return bytesRead.load(std::memory_order_relaxed) +
           bytesWritten.load(std::memory_order_relaxed);
  }
};

inline IoStats& ioStats() noexcept {
  static IoStats stats;
  return stats;
}

namespace detail {
inline std::atomic<int>& ioBackendFlag() noexcept {
  // 0 = epoll, 1 = io_uring (requested; may still fall back at loop
  // construction if the kernel can't run it).
  static std::atomic<int> choice{[] {
    const char* v = std::getenv("ZDR_IO_BACKEND");
    if (v != nullptr && (v[0] == 'i' || v[0] == 'u')) {  // io_uring/uring
      return 1;
    }
    return 0;
  }()};
  return choice;
}
}  // namespace detail

// Requested EventLoop I/O backend (ZDR_IO_BACKEND=epoll|io_uring).
// epoll is the default; an io_uring request degrades to epoll with one
// stderr note when the kernel can't run the ring (ENOSYS, seccomp,
// missing EXT_ARG). Read at loop construction only.
enum class IoBackendChoice : uint8_t { kEpoll = 0, kIoUring = 1 };
inline IoBackendChoice ioBackendChoice() noexcept {
  return detail::ioBackendFlag().load(std::memory_order_relaxed) == 1
             ? IoBackendChoice::kIoUring
             : IoBackendChoice::kEpoll;
}
inline void setIoBackendChoice(IoBackendChoice c) noexcept {
  detail::ioBackendFlag().store(c == IoBackendChoice::kIoUring ? 1 : 0,
                                std::memory_order_relaxed);
}

}  // namespace zdr
