// Userspace UDP VIP forwarder — the Katran UDP datapath model.
//
// Katran consistently routes UDP packets to L7 backends by hashing the
// 4-tuple (§4.1). This userspace stand-in does the same at datagram
// granularity: the first datagram of a flow picks a backend by Maglev
// over the client address, and the flow's own record (`flows_`) keeps
// that backend for every later datagram, so a backend-set change never
// moves a live flow (§5.1). Replies flow back through a per-flow NAT
// socket so the client sees a single stable peer.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "l4lb/consistent_hash.h"
#include "metrics/metrics.h"
#include "netcore/buffer_pool.h"
#include "netcore/event_loop.h"
#include "netcore/socket.h"
#include "netcore/udp_batch.h"

namespace zdr::l4lb {

class UdpForwarder {
 public:
  struct Options {
    // Idle flows are reaped after this long without traffic.
    Duration flowIdleTimeout = Duration{30000};
  };

  struct Backend {
    std::string name;
    SocketAddr addr;
  };

  UdpForwarder(EventLoop& loop, const SocketAddr& vip,
               std::vector<Backend> backends, Options opts,
               MetricsRegistry* metrics = nullptr);
  ~UdpForwarder();
  UdpForwarder(const UdpForwarder&) = delete;
  UdpForwarder& operator=(const UdpForwarder&) = delete;

  [[nodiscard]] SocketAddr vip() const { return vipSock_.localAddr(); }
  [[nodiscard]] size_t flowCount() const noexcept { return flows_.size(); }
  [[nodiscard]] uint64_t forwarded() const noexcept { return forwarded_; }
  [[nodiscard]] uint64_t returned() const noexcept { return returned_; }

  // Replaces the backend set (health integration point). Only new
  // flows see it: a live flow's record keeps its backend.
  void setBackends(std::vector<Backend> backends);

 private:
  struct Flow {
    SocketAddr client;
    SocketAddr backend;
    UdpSocket natSock;  // source of forwarded packets; sink of replies
    TimePoint lastActive;
  };

  void onVipReadable();
  void onNatReadable(uint64_t flowKey);
  Flow* flowFor(const SocketAddr& client);
  // Flush the staged run of datagrams out of `flow`'s NAT socket
  // (client → backend direction) in one sendmmsg.
  void flushToBackend(Flow* flow);
  // Flush staged backend replies back out the VIP socket.
  void flushReturns();
  void reapIdle();

  EventLoop& loop_;
  Options opts_;
  MetricsRegistry* metrics_;
  std::vector<Backend> backends_;
  MaglevHash maglev_;  // over backends_, in its order
  // Pool before batches: batch handles release into it on destruction.
  BufferPool pool_;
  RecvBatch rxBatch_{pool_};
  SendBatch txBatch_{pool_};
  UdpSocket vipSock_;
  std::unordered_map<uint64_t, std::unique_ptr<Flow>> flows_;
  EventLoop::TimerId reapTimer_ = 0;
  uint64_t forwarded_ = 0;
  uint64_t returned_ = 0;
};

}  // namespace zdr::l4lb
