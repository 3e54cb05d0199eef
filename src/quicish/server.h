// Quicish UDP server instance with SO_REUSEPORT workers, flow table,
// and the two restart paths the paper contrasts:
//
//  * naive restart — the new instance binds *fresh* REUSEPORT sockets
//    on the same VIP, perturbing the kernel's socket ring and
//    mis-routing packets of established flows (Fig 2d), and
//  * Socket Takeover — the new instance adopts the old instance's
//    socket fds (ring unchanged) and user-space-routes packets of
//    flows it does not own to the draining instance over a
//    pre-configured host-local address (§4.1, Fig 10).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "metrics/metrics.h"
#include "netcore/buffer_pool.h"
#include "netcore/event_loop.h"
#include "netcore/fd_guard.h"
#include "netcore/socket.h"
#include "netcore/udp_batch.h"
#include "quicish/packet.h"

namespace zdr::quicish {

class Server {
 public:
  struct Options {
    uint32_t instanceId = 0;
    size_t numWorkers = 4;       // REUSEPORT sockets on the VIP
    // Enables conn-ID user-space routing of unknown-flow packets to
    // the draining peer instance (set via setForwardPeer).
    bool userSpaceRouting = false;
  };

  // Fresh bind on `vip` (REUSEPORT so a second instance can coexist).
  Server(EventLoop& loop, const SocketAddr& vip, Options opts,
         MetricsRegistry* metrics = nullptr);
  // Socket Takeover: adopt already-open VIP sockets.
  Server(EventLoop& loop, std::vector<FdGuard> vipSockets, Options opts,
         MetricsRegistry* metrics = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Raw fds of the VIP sockets (for SCM_RIGHTS export). Ownership stays
  // here; the receiving process dup()s them.
  [[nodiscard]] std::vector<int> vipSocketFds() const;

  // Drain mode: stop reading the shared VIP sockets (the updated
  // instance now consumes them) but keep processing flows delivered to
  // the host-local forward address, and keep replying on the shared
  // sockets.
  void enterDrain();

  // Where peers should user-space-forward packets for our flows.
  [[nodiscard]] SocketAddr forwardAddr() const {
    return forwardSock_.localAddr();
  }
  // Configure the draining peer to forward unknown flows to.
  void setForwardPeer(const SocketAddr& addr) {
    forwardPeer_ = addr;
    haveForwardPeer_ = true;
  }

  // End of a takeover drain, before `retired` is destroyed: an
  // instance that user-space-routes to `retired` adopts its flows and
  // drops the forward peer, so a flow that outlives the drain is acked
  // here instead of forwarded to a closed socket. Without routing the
  // strays were already reset (Fig 10's traditional mode).
  void adoptFlows(Server& retired);

  // Closes everything.
  void shutdown();

  [[nodiscard]] const SocketAddr& vip() const noexcept { return vip_; }
  [[nodiscard]] size_t flowCount() const noexcept { return flows_.size(); }
  [[nodiscard]] uint64_t packetsProcessed() const noexcept {
    return packetsProcessed_;
  }
  [[nodiscard]] uint64_t misrouted() const noexcept { return misrouted_; }
  [[nodiscard]] uint64_t forwarded() const noexcept { return forwardedCnt_; }

 private:
  struct Flow {
    uint32_t lastSeq = 0;
    uint64_t packets = 0;
  };

  void setupForwardSocket();
  void registerVipSocket(size_t idx);
  void onVipReadable(size_t idx);
  void onForwardReadable();
  // Processes one datagram arriving on VIP socket `idx` from `from`.
  void processDatagram(std::span<const std::byte> data,
                       const SocketAddr& from, size_t viaSocket);
  void reply(const Packet& p, const SocketAddr& to);
  // Flush staged replies / user-space-forwarded strays (one sendmmsg
  // each); called when a batch fills and at the end of each drain.
  void flushReplies();
  void flushForwards();
  void publishPoolGauges();
  void bump(const char* name);

  EventLoop& loop_;
  Options opts_;
  MetricsRegistry* metrics_;
  SocketAddr vip_;
  // Batched datagram plane: the pool must be declared before the
  // batches, whose buffer handles release into it on destruction.
  BufferPool pool_;
  RecvBatch rxBatch_{pool_};
  SendBatch replyBatch_{pool_};
  SendBatch forwardBatch_{pool_};
  Buffer encodeBuf_;  // per-reply scratch, reused across packets
  std::vector<UdpSocket> vipSocks_;
  UdpSocket forwardSock_;  // host-local address for user-space routing
  SocketAddr forwardPeer_{};
  bool haveForwardPeer_ = false;
  bool draining_ = false;
  std::unordered_map<uint64_t, Flow> flows_;
  uint64_t packetsProcessed_ = 0;
  uint64_t misrouted_ = 0;
  uint64_t forwardedCnt_ = 0;
};

}  // namespace zdr::quicish
