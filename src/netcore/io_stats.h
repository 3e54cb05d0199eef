// Process-wide socket I/O counters and the vectored-I/O kill switch.
//
// The counters exist so the throughput bench can report write syscalls
// per request (the number the writev coalescing is supposed to shrink)
// without strace. They are plain relaxed atomics: cheap enough to leave
// on unconditionally, precise enough for before/after ratios.
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

  // Datagram plane. "Scalar" counts recvfrom/sendto calls (including
  // the ZDR_NO_BATCHED_UDP fallback loops), "batch" counts
  // recvmmsg/sendmmsg calls; udpDatagrams is datagrams actually moved
  // either way, so syscalls-per-datagram falls out of these three.
  std::atomic<uint64_t> udpScalarSyscalls{0};
  std::atomic<uint64_t> udpBatchSyscalls{0};
  std::atomic<uint64_t> udpDatagrams{0};
  // Batch-fill distribution: datagrams moved per batched syscall.
  HdrHistogram udpDatagramsPerSyscall;

  // Reduced-copy relay plane. bytesRead/bytesWritten above already
  // count every byte that crossed userspace; spliceBytes counts bytes
  // that moved socket→pipe→socket entirely in-kernel (never touching a
  // userspace Buffer), and zcBytesSent counts bytes handed to the
  // kernel with MSG_ZEROCOPY (pinned, not memcpy'd into skbs — unless
  // the completion comes back "copied", which zcCopiedCompletions
  // tracks). copy-bytes/req = (bytesRead + bytesWritten) / requests.
  std::atomic<uint64_t> spliceCalls{0};
  std::atomic<uint64_t> spliceBytes{0};
  std::atomic<uint64_t> zcSendCalls{0};
  std::atomic<uint64_t> zcBytesSent{0};
  std::atomic<uint64_t> zcCompletions{0};
  // Completions flagged SO_EE_CODE_ZEROCOPY_COPIED: the kernel fell
  // back to copying (loopback always does). The send still worked;
  // this only means the pin bought nothing for those bytes.
  std::atomic<uint64_t> zcCopiedCompletions{0};
  // MSG_ZEROCOPY sends that failed (ENOBUFS etc.) and were retried as
  // plain sends.
  std::atomic<uint64_t> zcFallbacks{0};
  // Relay pipe pool: pipe2() pairs created vs handed back out of the
  // per-thread free list.
  std::atomic<uint64_t> pipePoolCreated{0};
  std::atomic<uint64_t> pipePoolReused{0};

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
    zcSendCalls = 0;
    zcBytesSent = 0;
    zcCompletions = 0;
    zcCopiedCompletions = 0;
    zcFallbacks = 0;
    pipePoolCreated = 0;
    pipePoolReused = 0;
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
  // way). Spliced bytes are deliberately absent: they are the bytes
  // the relay fast path stopped copying.
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
inline std::atomic<bool>& batchedUdpFlag() noexcept {
  static std::atomic<bool> enabled{std::getenv("ZDR_NO_BATCHED_UDP") ==
                                   nullptr};
  return enabled;
}
inline std::atomic<bool>& vectoredIoFlag() noexcept {
  static std::atomic<bool> enabled{std::getenv("ZDR_NO_VECTORED_IO") ==
                                   nullptr};
  return enabled;
}
inline std::atomic<bool>& spliceRelayFlag() noexcept {
  static std::atomic<bool> enabled{std::getenv("ZDR_NO_SPLICE_RELAY") ==
                                   nullptr};
  return enabled;
}
inline std::atomic<bool>& zeroCopyFlag() noexcept {
  static std::atomic<bool> enabled{std::getenv("ZDR_NO_ZEROCOPY") == nullptr};
  return enabled;
}
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

// When false (ZDR_NO_VECTORED_IO=1, or setVectoredIoEnabled(false)),
// Connection falls back to the legacy one-write()-per-send hot path.
// The bench flips this between runs to measure the same binary both
// ways.
inline bool vectoredIoEnabled() noexcept {
  return detail::vectoredIoFlag().load(std::memory_order_relaxed);
}
inline void setVectoredIoEnabled(bool on) noexcept {
  detail::vectoredIoFlag().store(on, std::memory_order_relaxed);
}

// When false (ZDR_NO_BATCHED_UDP=1, or setBatchedUdpEnabled(false)),
// UdpSocket::recvMany/sendMany degrade to one recvfrom/sendto per
// datagram — same batch semantics (including per-datagram fault
// injection), one syscall per element. The bench flips this between
// runs to measure the same binary both ways.
inline bool batchedUdpEnabled() noexcept {
  return detail::batchedUdpFlag().load(std::memory_order_relaxed);
}
inline void setBatchedUdpEnabled(bool on) noexcept {
  detail::batchedUdpFlag().store(on, std::memory_order_relaxed);
}

// When false (ZDR_NO_SPLICE_RELAY=1, or setSpliceRelayEnabled(false)),
// Connection relay mode pumps bytes through a userspace buffer (read →
// send) instead of socket→pipe→socket splice(2). Byte-identical
// semantics either way; the bench flips this to measure both.
inline bool spliceRelayEnabled() noexcept {
  return detail::spliceRelayFlag().load(std::memory_order_relaxed);
}
inline void setSpliceRelayEnabled(bool on) noexcept {
  detail::spliceRelayFlag().store(on, std::memory_order_relaxed);
}

// When false (ZDR_NO_ZEROCOPY=1, or setZeroCopyEnabled(false)), large
// sends use the plain copying sendmsg path. Independently of the
// switch, zerocopy is skipped when the kernel lacks SO_ZEROCOPY (see
// zeroCopySupported()).
inline bool zeroCopyEnabled() noexcept {
  return detail::zeroCopyFlag().load(std::memory_order_relaxed);
}
inline void setZeroCopyEnabled(bool on) noexcept {
  detail::zeroCopyFlag().store(on, std::memory_order_relaxed);
}

// One-time startup capability probe: true iff the kernel accepts
// SO_ZEROCOPY on a TCP socket. Logs once to stderr when missing so
// bench runs can tell which mode actually ran. Defined in socket.cpp.
[[nodiscard]] bool zeroCopySupported() noexcept;

// Requested EventLoop I/O backend (ZDR_IO_BACKEND=epoll|io_uring).
// epoll is the default; an io_uring request degrades to epoll with one
// stderr note when the kernel can't run the ring (ENOSYS, seccomp,
// missing EXT_ARG) — same graceful-fallback idiom as the other kill
// switches. Read at loop construction only.
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
