// Reusable batch objects for the recvmmsg/sendmmsg datagram plane.
//
// The paper's Socket Takeover keeps the UDP/QUIC serving path alive
// through a release by handing over SO_REUSEPORT fds and user-space
// forwarding the draining process's packets (§4.1) — which means the
// datagram plane carries double traffic exactly when the fleet is most
// loaded. One syscall and one fresh buffer per datagram caps that
// plane; these batch objects amortize both:
//
//  * RecvBatch / SendBatch own per-loop reusable arenas (mmsghdr,
//    iovec, sockaddr_in arrays) sized once at construction, so a
//    wakeup that moves N datagrams touches the allocator zero times;
//  * datagram buffers come from a per-worker BufferPool free list;
//  * UdpSocket::recvMany/sendMany move a whole batch per syscall.
//
// Like the pool, batches are loop-confined: one per consumer, reused
// across wakeups, never shared between threads.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "netcore/buffer_pool.h"
#include "netcore/socket_addr.h"

namespace zdr {

// Default datagrams moved per recvmmsg/sendmmsg call. 16 keeps the
// arena footprint per worker at 32 KiB of pooled payload while already
// amortizing the syscall ~16x at saturation.
inline constexpr size_t kDefaultUdpBatch = 16;

// Receive side: UdpSocket::recvMany fills the batch; the surviving set
// (after per-datagram fault injection — drops remove an element,
// duplicates repeat one) is exposed by index. Buffers are pooled and
// released on the next recvMany/clear.
class RecvBatch {
 public:
  explicit RecvBatch(BufferPool& pool, size_t maxBatch = kDefaultUdpBatch)
      : pool_(&pool) {
    bufs_.resize(maxBatch);
    hdrs_.resize(maxBatch);
    iovs_.resize(maxBatch);
    raw_.resize(maxBatch);
    slots_.reserve(maxBatch * 2);  // every element duplicated, worst case
  }

  [[nodiscard]] size_t maxBatch() const noexcept { return hdrs_.size(); }
  // Surviving datagrams from the last recvMany.
  [[nodiscard]] size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] std::span<const std::byte> data(size_t i) const noexcept {
    const Slot& s = slots_[i];
    return bufs_[s.buf].span().subspan(0, s.len);
  }
  [[nodiscard]] const SocketAddr& from(size_t i) const noexcept {
    return slots_[i].from;
  }

  void clear() noexcept {
    slots_.clear();
    for (auto& b : bufs_) {
      b.reset();
    }
  }

 private:
  friend class UdpSocket;
  struct Slot {
    size_t buf;  // index into bufs_ (duplicates share one buffer)
    size_t len;
    SocketAddr from;
  };

  BufferPool* pool_;
  std::vector<BufferPool::Handle> bufs_;
  std::vector<mmsghdr> hdrs_;
  std::vector<iovec> iovs_;
  std::vector<sockaddr_in> raw_;
  std::vector<Slot> slots_;
};

// Send side: datagrams are staged into pooled buffers (push copies, or
// stage()/commit() encodes in place with zero copies) and flushed by
// UdpSocket::sendMany in one sendmmsg.
class SendBatch {
 public:
  explicit SendBatch(BufferPool& pool, size_t maxBatch = kDefaultUdpBatch)
      : pool_(&pool) {
    bufs_.resize(maxBatch);
    slots_.resize(maxBatch);
    // Arena is sized for every element plus one injected duplicate each
    // (worst case), so sendMany never allocates.
    hdrs_.reserve(maxBatch * 2);
    iovs_.reserve(maxBatch * 2);
  }

  [[nodiscard]] size_t maxBatch() const noexcept { return bufs_.size(); }
  [[nodiscard]] size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool full() const noexcept { return count_ == bufs_.size(); }

  // Stages one datagram (copies into a pooled buffer). False when full.
  bool push(std::span<const std::byte> data, const SocketAddr& to) {
    if (full()) {
      return false;
    }
    std::span<std::byte> dst = stage(to, data.size());
    if (!data.empty()) {
      std::memcpy(dst.data(), data.data(), data.size());
    }
    commit(data.size());
    return true;
  }

  // Zero-copy staging: returns a writable span of at least `need`
  // bytes addressed to `to`; the caller encodes in place and calls
  // commit(len). Empty span when the batch is full.
  [[nodiscard]] std::span<std::byte> stage(const SocketAddr& to,
                                           size_t need = 0) {
    if (full()) {
      return {};
    }
    if (!bufs_[count_].valid() || bufs_[count_].size() < need) {
      bufs_[count_] = pool_->acquire(need);
    }
    slots_[count_].to = to.raw();
    return bufs_[count_].span();
  }
  void commit(size_t len) noexcept {
    slots_[count_].len = len;
    ++count_;
  }

  void clear() noexcept {
    count_ = 0;
    for (auto& b : bufs_) {
      b.reset();
    }
  }

 private:
  friend class UdpSocket;
  struct Slot {
    size_t len = 0;
    sockaddr_in to{};
  };

  BufferPool* pool_;
  std::vector<BufferPool::Handle> bufs_;
  std::vector<Slot> slots_;
  std::vector<mmsghdr> hdrs_;  // scratch rebuilt by sendMany
  std::vector<iovec> iovs_;
  size_t count_ = 0;
};

}  // namespace zdr
