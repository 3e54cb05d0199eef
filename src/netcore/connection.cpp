#include "netcore/connection.h"

#include <array>

#include "netcore/fault_injection.h"
#include "netcore/io_stats.h"
#include "netcore/result.h"

namespace zdr {

namespace {
// Gather-write width per flush pass; Linux caps at IOV_MAX (1024) but
// past a few dozen segments the syscall batching gain is already fully
// realised.
constexpr size_t kMaxIov = 64;
// Sends smaller than this merge into the tail segment instead of
// opening a new one, so bursts of tiny frames don't bloat the iovec
// list.
constexpr size_t kSegmentMergeCap = 16 * 1024;

bool wouldBlock(const std::error_code& ec) noexcept {
  return ec == std::errc::operation_would_block ||
         ec == std::errc::resource_unavailable_try_again;
}
}  // namespace

Connection::Connection(EventLoop& loop, TcpSocket sock)
    : loop_(loop), sock_(std::move(sock)) {}

Connection::~Connection() {
  if (registered_ && sock_.valid()) {
    loop_.removeFd(sock_.fd());
  }
}

void Connection::start() {
  // Proxy traffic is write-write-read (headers, then body, then wait
  // for the response); with Nagle on, the second small write stalls
  // behind the peer's delayed ACK — a ~40 ms floor per hop that dwarfs
  // every other cost in the serving path.
  sock_.setNoDelay(true);
  auto self = shared_from_this();
  interest_ = kEvRead;
  loop_.addFd(sock_.fd(), kEvRead,
              [self](uint32_t events) { self->handleEvents(events); },
              "conn");
  registered_ = true;
}

void Connection::handleEvents(uint32_t events) {
  if (events & (kEvError | kEvHup)) {
    // Pull any final bytes first so data racing a reset is not lost.
    handleReadable();
    if (!closed_) {
      close(std::make_error_code(std::errc::connection_reset));
    }
    return;
  }
  if (events & kEvRead) {
    handleReadable();
  }
  if (closed_) {
    return;
  }
  if (events & kEvWrite) {
    handleWritable();
  }
}

void Connection::handleReadable() {
  while (sock_.valid()) {
    // Scatter read: land bytes directly in the input buffer's writable
    // tail, with a stack chunk as overflow so one syscall can pull more
    // than the reserved tail (muduo's trick — the overflow is appended
    // only on the rare large read).
    in_.ensureWritable(4096);
    std::span<std::byte> tail = in_.writableSpan();
    std::array<std::byte, 16384> extra;
    std::array<iovec, 2> iov{{{tail.data(), tail.size()},
                              {extra.data(), extra.size()}}};
    std::error_code ec;
    size_t n = sock_.readv(iov, ec);
    if (ec) {
      if (wouldBlock(ec)) {
        break;
      }
      if (ec == std::errc::interrupted) {
        continue;
      }
      close(ec);
      return;
    }
    if (n == 0) {  // orderly EOF
      close({});
      return;
    }
    size_t intoTail = std::min(n, tail.size());
    in_.commit(intoTail);
    if (n > intoTail) {
      in_.append(std::span(extra.data(), n - intoTail));
    }
    if (n < tail.size() + extra.size()) {
      break;  // drained the socket
    }
  }
  if (dataCb_ && !in_.empty()) {
    // Invoke through a copy: the callback may close() this connection,
    // which drops dataCb_ — destroying the lambda mid-execution.
    auto cb = dataCb_;
    cb(in_);
  }
}

void Connection::handleWritable() { flushOut(); }

void Connection::appendOut(std::span<const std::byte> bytes) {
  if (out_.empty() || out_.back().size() + bytes.size() > kSegmentMergeCap) {
    out_.emplace_back();
  }
  out_.back().append(bytes);
  outBytes_ += bytes.size();
}

void Connection::consumeOut(size_t n) {
  outBytes_ -= n;
  while (n > 0) {
    Buffer& front = out_.front();
    size_t take = std::min(n, front.size());
    front.consume(take);
    n -= take;
    if (front.empty()) {
      out_.pop_front();
    }
  }
}

std::error_code Connection::writeQueued() {
  while (outBytes_ > 0 && sock_.valid()) {
    std::array<iovec, kMaxIov> iov;
    size_t cnt = 0;
    size_t attempted = 0;
    for (const auto& seg : out_) {
      if (cnt == iov.size()) {
        break;
      }
      auto r = seg.readable();
      if (r.empty()) {
        continue;
      }
      iov[cnt].iov_base = const_cast<std::byte*>(r.data());
      iov[cnt].iov_len = r.size();
      attempted += r.size();
      ++cnt;
    }
    std::error_code ec;
    size_t n = sock_.writev(std::span<const iovec>(iov.data(), cnt), ec);
    if (ec) {
      return ec;
    }
    consumeOut(n);
    if (n < attempted) {
      break;  // kernel buffer full (or injected short write): wait for kEvWrite
    }
  }
  return {};
}

void Connection::flushOut() {
  std::error_code ec = writeQueued();
  if (ec && !wouldBlock(ec)) {
    close(ec);
    return;
  }
  if (outBytes_ == 0) {
    if (drainCb_) {
      auto cb = drainCb_;  // same self-close hazard as dataCb_
      cb();
    }
    if (closeOnDrain_ && !closed_) {
      close({});
      return;
    }
  }
  if (!closed_) {
    updateInterest();
  }
}

void Connection::scheduleFlush() {
  if (flushScheduled_) {
    return;
  }
  flushScheduled_ = true;
  auto self = shared_from_this();
  loop_.runAtEnd([self] {
    self->flushScheduled_ = false;
    // A pending fault-injected delay owns the flush (timer-driven);
    // flushing here would deliver the delayed bytes early.
    if (!self->closed_ && !self->delayArmed_) {
      self->flushOut();
    }
  });
}

void Connection::send(std::span<const std::byte> bytes) {
  if (closed_ || !sock_.valid()) {
    return;
  }
  if (fault::active()) {
    auto plan = fault::FaultRegistry::instance().planFor(sock_.fd());
    if (plan) {
      if (plan->dropSend()) {
        fault::FaultRegistry::instance().noteInjectionOn(sock_.fd());
        return;  // the whole message vanishes on the wire
      }
      std::chrono::milliseconds d{0};
      if (plan->delaySend(d)) {
        fault::FaultRegistry::instance().noteInjectionOn(sock_.fd());
        // Buffer WITHOUT registering write interest: only the timer
        // flushes, so delivery is deferred but byte order preserved.
        appendOut(bytes);
        if (!delayArmed_) {
          delayArmed_ = true;
          auto self = shared_from_this();
          loop_.runAfter(d, [self] {
            self->delayArmed_ = false;
            if (!self->closed_) {
              self->handleWritable();
            }
          });
        }
        return;
      }
      if (delayArmed_) {
        // A delayed flush is pending; queue behind it to keep order.
        appendOut(bytes);
        return;
      }
    }
  }
  if (bytes.empty()) {
    return;
  }
  // Deferred flush: queue now, gather-write once at the end of this
  // loop iteration. No epoll_ctl round-trip when the flush drains
  // synchronously — updateInterest() is a no-op while write interest
  // never flips.
  appendOut(bytes);
  scheduleFlush();
}

void Connection::updateInterest() {
  if (!sock_.valid() || !registered_) {
    return;
  }
  uint32_t ev = kEvRead | (outBytes_ > 0 ? kEvWrite : 0u);
  if (ev != interest_) {
    interest_ = ev;
    loop_.modifyFd(sock_.fd(), ev);
  }
}

void Connection::close(std::error_code reason) {
  if (closed_) {
    return;
  }
  closed_ = true;
  // Best-effort final drain: send() only queues, so a close() that beats
  // the end-of-iteration flush must not demote those bytes to silent
  // loss. A broken or full socket loses them either way. Skip while a
  // fault-injected delay owns the queue — those bytes are "in flight in
  // the network", not ours.
  if (!delayArmed_) {
    (void)writeQueued();
  }
  if (registered_ && sock_.valid()) {
    loop_.removeFd(sock_.fd());
    registered_ = false;
  }
  if (fault::active() && sock_.valid()) {
    // Snapshot the injection ledger before it is wiped with the fd:
    // close callbacks attribute the failure (disruption cause) after
    // the registry entry is gone.
    faultInjections_ =
        fault::FaultRegistry::instance().injectionsOn(sock_.fd());
    // The fd number is about to be recycled; stale plans must not
    // follow it onto an unrelated socket.
    fault::FaultRegistry::instance().onFdClosed(sock_.fd());
  }
  sock_.close();
  // Callbacks routinely capture shared_ptrs to the object that owns
  // this connection; dropping them here breaks the reference cycle the
  // moment the connection dies.
  dataCb_ = nullptr;
  drainCb_ = nullptr;
  if (closeCb_) {
    // Detach first: callbacks may destroy this object's owner.
    auto cb = std::move(closeCb_);
    closeCb_ = nullptr;
    cb(reason);
  }
}

uint64_t Connection::faultInjections() const noexcept {
  if (!closed_ && sock_.valid() && fault::active()) {
    return fault::FaultRegistry::instance().injectionsOn(sock_.fd());
  }
  return faultInjections_;
}

void Connection::closeAfterFlush() {
  if (outBytes_ == 0 && !flushScheduled_) {
    close({});
  } else {
    closeOnDrain_ = true;
  }
}

// ----------------------------------------------------------------- Acceptor

Acceptor::Acceptor(EventLoop& loop, TcpListener listener, AcceptCallback cb)
    : loop_(loop), listener_(std::move(listener)), cb_(std::move(cb)) {
  loop_.addFd(listener_.fd(), kEvRead,
              [this](uint32_t) { handleReadable(); }, "listener");
}

Acceptor::~Acceptor() {
  *alive_ = false;
  close();
}

void Acceptor::handleReadable() {
  // `alive` and the callback copy outlive the Acceptor: check alive
  // (short-circuit!) before touching any member, and never invoke cb_
  // in place — the callback may destroy or detach() us mid-burst,
  // which would free the std::function while it executes.
  auto alive = alive_;
  auto cb = cb_;
  while (*alive && listener_.valid() && !paused_) {
    std::error_code ec;
    auto sock = listener_.accept(ec);
    if (!sock) {
      break;  // EAGAIN or transient error; either way, wait for epoll
    }
    cb(std::move(*sock));
  }
}

void Acceptor::pause() {
  if (paused_ || !listener_.valid()) {
    return;
  }
  paused_ = true;
  loop_.removeFd(listener_.fd());
}

void Acceptor::resume() {
  if (!paused_) {
    return;
  }
  paused_ = false;
  if (listener_.valid()) {
    loop_.addFd(listener_.fd(), kEvRead,
                [this](uint32_t) { handleReadable(); }, "listener");
  }
}

FdGuard Acceptor::detach() {
  if (!listener_.valid()) {
    return {};
  }
  loop_.removeFd(listener_.fd());
  return listener_.takeFd();
}

void Acceptor::close() {
  if (listener_.valid()) {
    loop_.removeFd(listener_.fd());
    listener_.close();
  }
}

// ---------------------------------------------------------------- Connector

namespace {

// Holds connect-in-progress state until writability or timeout.
struct PendingConnect : std::enable_shared_from_this<PendingConnect> {
  EventLoop& loop;
  TcpSocket sock;
  Connector::ConnectCallback cb;
  EventLoop::TimerId timer = 0;
  bool done = false;

  PendingConnect(EventLoop& l, TcpSocket s, Connector::ConnectCallback c)
      : loop(l), sock(std::move(s)), cb(std::move(c)) {}

  void finish(std::error_code ec) {
    if (done) {
      return;
    }
    done = true;
    loop.removeFd(sock.fd());
    loop.cancelTimer(timer);
    if (ec) {
      cb(TcpSocket{}, ec);
    } else {
      cb(std::move(sock), {});
    }
  }
};

}  // namespace

void Connector::connect(EventLoop& loop, const SocketAddr& peer,
                        ConnectCallback cb, Duration timeout) {
  std::error_code ec;
  TcpSocket sock = TcpSocket::connect(peer, ec);
  if (ec) {
    cb(TcpSocket{}, ec);
    return;
  }
  auto pending =
      std::make_shared<PendingConnect>(loop, std::move(sock), std::move(cb));
  loop.addFd(pending->sock.fd(), kEvWrite, [pending](uint32_t events) {
    if (events & (kEvError | kEvHup)) {
      std::error_code soErr = pending->sock.connectError();
      pending->finish(soErr ? soErr
                            : std::make_error_code(
                                  std::errc::connection_refused));
      return;
    }
    pending->finish(pending->sock.connectError());
  }, "connect");
  pending->timer = loop.runAfter(timeout, [pending] {
    pending->finish(std::make_error_code(std::errc::timed_out));
  });
}

}  // namespace zdr
