#include "quicish/server.h"


#include "netcore/listener_group.h"

namespace zdr::quicish {

Server::Server(EventLoop& loop, const SocketAddr& vip, Options opts,
               MetricsRegistry* metrics)
    : loop_(loop), opts_(opts), metrics_(metrics), vip_(vip) {
  // Shared ring-bind helper (same one the TCP ListenerGroup path
  // uses): handles the port-0 resolve-then-rebind dance.
  vipSocks_ = bindUdpRing(vip, opts_.numWorkers);
  vip_ = vipSocks_.front().localAddr();
  setupForwardSocket();
  for (size_t i = 0; i < vipSocks_.size(); ++i) {
    registerVipSocket(i);
  }
}

Server::Server(EventLoop& loop, std::vector<FdGuard> vipSockets, Options opts,
               MetricsRegistry* metrics)
    : loop_(loop), opts_(opts), metrics_(metrics) {
  for (auto& fd : vipSockets) {
    detail::setNonBlocking(fd.get(), true);
    vipSocks_.push_back(UdpSocket::fromFd(std::move(fd)));
  }
  if (!vipSocks_.empty()) {
    vip_ = vipSocks_.front().localAddr();
  }
  setupForwardSocket();
  for (size_t i = 0; i < vipSocks_.size(); ++i) {
    registerVipSocket(i);
  }
}

Server::~Server() { shutdown(); }

void Server::setupForwardSocket() {
  forwardSock_ = UdpSocket(SocketAddr::loopback(0));
  loop_.addFd(forwardSock_.fd(), kEvRead,
              [this](uint32_t) { onForwardReadable(); });
}

void Server::registerVipSocket(size_t idx) {
  loop_.addFd(vipSocks_[idx].fd(), kEvRead,
              [this, idx](uint32_t) { onVipReadable(idx); });
}

std::vector<int> Server::vipSocketFds() const {
  std::vector<int> fds;
  fds.reserve(vipSocks_.size());
  for (const auto& s : vipSocks_) {
    fds.push_back(s.fd());
  }
  return fds;
}

void Server::enterDrain() {
  draining_ = true;
  // Stop reading the shared VIP sockets; the updated instance owns
  // them now. Keep the fds open: replies to our flows still go out on
  // them, exactly as the paper's draining process does.
  for (auto& s : vipSocks_) {
    if (s.valid() && loop_.watching(s.fd())) {
      loop_.removeFd(s.fd());
    }
  }
}

void Server::adoptFlows(Server& retired) {
  if (!opts_.userSpaceRouting || !haveForwardPeer_) {
    return;
  }
  flows_.merge(retired.flows_);
  haveForwardPeer_ = false;
}

void Server::shutdown() {
  for (auto& s : vipSocks_) {
    if (s.valid()) {
      if (loop_.watching(s.fd())) {
        loop_.removeFd(s.fd());
      }
      s.close();
    }
  }
  vipSocks_.clear();
  if (forwardSock_.valid()) {
    if (loop_.watching(forwardSock_.fd())) {
      loop_.removeFd(forwardSock_.fd());
    }
    forwardSock_.close();
  }
}

void Server::bump(const char* name) {
  if (metrics_) {
    metrics_->counter(std::string("quicish.") + std::to_string(opts_.instanceId) +
                      "." + name)
        .add();
  }
}

void Server::onVipReadable(size_t idx) {
  // Drain the socket a whole batch per syscall; replies and forwarded
  // strays stage into send batches flushed below (and on batch-full),
  // so a wakeup that moves N datagrams costs O(N / batch) syscalls.
  std::error_code ec;
  while (!ec) {
    vipSocks_[idx].recvMany(rxBatch_, ec);
    for (size_t i = 0; i < rxBatch_.size(); ++i) {
      processDatagram(rxBatch_.data(i), rxBatch_.from(i), idx);
    }
  }
  flushReplies();
  flushForwards();
  publishPoolGauges();
}

void Server::onForwardReadable() {
  std::error_code ec;
  while (!ec) {
    forwardSock_.recvMany(rxBatch_, ec);
    for (size_t i = 0; i < rxBatch_.size(); ++i) {
      auto fwd = unwrapForwarded(rxBatch_.data(i));
      if (!fwd) {
        continue;
      }
      auto bytes = std::as_bytes(
          std::span(fwd->inner.data(), fwd->inner.size()));
      processDatagram(bytes, fwd->origSource, 0);
    }
  }
  flushReplies();
  flushForwards();
  publishPoolGauges();
}

void Server::processDatagram(std::span<const std::byte> data,
                             const SocketAddr& from, size_t viaSocket) {
  auto pkt = decode(data);
  if (!pkt) {
    return;
  }
  ++packetsProcessed_;
  bump("packets");

  switch (pkt->type) {
    case PacketType::kInitial: {
      if (draining_) {
        // A draining instance must not take new flows; this can only
        // be a forwarded stray. Reset it.
        Packet rst;
        rst.type = PacketType::kReset;
        rst.connId = pkt->connId;
        rst.instanceId = opts_.instanceId;
        reply(rst, from);
        return;
      }
      flows_[pkt->connId] = Flow{};
      Packet ack;
      ack.type = PacketType::kAck;
      ack.connId = pkt->connId;
      ack.seq = pkt->seq;
      ack.instanceId = opts_.instanceId;
      reply(ack, from);
      bump("flows_opened");
      break;
    }
    case PacketType::kData: {
      auto it = flows_.find(pkt->connId);
      if (it == flows_.end()) {
        // Packet for a flow we do not own: either user-space-route it
        // to the draining peer, or count a mis-route (Fig 2d / Fig 10).
        if (opts_.userSpaceRouting && haveForwardPeer_) {
          // Stage the wrapped stray; a takeover-era drain forwards a
          // whole batch of misrouted packets in one sendmmsg.
          if (forwardBatch_.full()) {
            flushForwards();
          }
          encodeBuf_.clear();
          wrapForwarded(data, from, encodeBuf_);
          forwardBatch_.push(encodeBuf_.readable(), forwardPeer_);
          ++forwardedCnt_;
          bump("forwarded");
          return;
        }
        ++misrouted_;
        bump("misrouted");
        Packet rst;
        rst.type = PacketType::kReset;
        rst.connId = pkt->connId;
        rst.seq = pkt->seq;
        rst.instanceId = opts_.instanceId;
        reply(rst, from);
        return;
      }
      it->second.lastSeq = pkt->seq;
      ++it->second.packets;
      Packet ack;
      ack.type = PacketType::kAck;
      ack.connId = pkt->connId;
      ack.seq = pkt->seq;
      ack.instanceId = opts_.instanceId;
      reply(ack, from);
      break;
    }
    case PacketType::kClose: {
      flows_.erase(pkt->connId);
      break;
    }
    default:
      break;
  }
  (void)viaSocket;
}

void Server::reply(const Packet& p, const SocketAddr& to) {
  if (replyBatch_.full()) {
    flushReplies();
  }
  encodeBuf_.clear();
  encode(p, encodeBuf_);
  replyBatch_.push(encodeBuf_.readable(), to);
}

void Server::flushReplies() {
  if (replyBatch_.empty()) {
    return;
  }
  std::error_code ec;
  // Replies go out on a shared VIP socket while we hold one (a
  // draining instance keeps doing so, per §4.1), else the host-local
  // forward socket.
  if (!vipSocks_.empty() && vipSocks_.front().valid()) {
    vipSocks_.front().sendMany(replyBatch_, ec);
  } else {
    forwardSock_.sendMany(replyBatch_, ec);
  }
}

void Server::flushForwards() {
  if (forwardBatch_.empty()) {
    return;
  }
  std::error_code ec;
  forwardSock_.sendMany(forwardBatch_, ec);
}

void Server::publishPoolGauges() {
  if (!metrics_) {
    return;
  }
  auto s = pool_.stats();
  std::string prefix =
      "quicish." + std::to_string(opts_.instanceId) + ".pool_";
  metrics_->gauge(prefix + "hits").set(static_cast<double>(s.hits));
  metrics_->gauge(prefix + "misses").set(static_cast<double>(s.misses));
  metrics_->gauge(prefix + "outstanding")
      .set(static_cast<double>(s.outstanding));
}

}  // namespace zdr::quicish
