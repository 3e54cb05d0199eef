// Buffered, event-loop-confined TCP connection plumbing.
//
// Connection pumps bytes between a non-blocking socket and in/out
// Buffers, invoking user callbacks. Acceptor and Connector wrap
// listening and async connect. All methods must be called on the
// owning loop's thread.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <system_error>

#include "netcore/buffer.h"
#include "netcore/event_loop.h"
#include "netcore/socket.h"

namespace zdr {

class Connection : public std::enable_shared_from_this<Connection> {
 public:
  // New readable bytes have been appended to `input`; consume what you
  // can and leave the rest.
  using DataCallback = std::function<void(Buffer& input)>;
  // Connection ended: orderly EOF carries a default error_code;
  // transport errors (ECONNRESET, EPIPE, timeouts) carry theirs.
  using CloseCallback = std::function<void(std::error_code)>;
  // Output buffer fully drained to the kernel.
  using DrainCallback = std::function<void()>;

  static std::shared_ptr<Connection> make(EventLoop& loop, TcpSocket sock) {
    return std::shared_ptr<Connection>(new Connection(loop, std::move(sock)));
  }
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void setDataCallback(DataCallback cb) { dataCb_ = std::move(cb); }
  void setCloseCallback(CloseCallback cb) { closeCb_ = std::move(cb); }
  void setDrainCallback(DrainCallback cb) { drainCb_ = std::move(cb); }

  // Registers with the loop and starts reading.
  void start();

  // Synchronously pulls whatever the kernel has buffered through the
  // data callback (non-blocking). Used by a draining server to make
  // sure every delivered byte is accounted for before it answers an
  // in-flight request with a handoff response (PPR §4.3).
  void drainPending() { handleReadable(); }

  void send(std::span<const std::byte> bytes);
  void send(std::string_view s) {
    send(std::as_bytes(std::span(s.data(), s.size())));
  }
  void sendBuffer(Buffer& buf) {  // moves buf's readable bytes out
    send(buf.readable());
    buf.clear();
  }

  // Immediate close; pending output is dropped. Fires the close
  // callback (once) with the given reason.
  void close(std::error_code reason = {});
  // Closes once the output buffer drains (graceful).
  void closeAfterFlush();

  [[nodiscard]] bool open() const noexcept { return sock_.valid(); }
  // True once start() registered the fd (pooled connections are handed
  // out already started).
  [[nodiscard]] bool started() const noexcept { return registered_; }
  // Unsent bytes queued here.
  [[nodiscard]] size_t pendingOutput() const noexcept { return outBytes_; }
  [[nodiscard]] int fd() const noexcept { return sock_.fd(); }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  [[nodiscard]] TcpSocket& socket() noexcept { return sock_; }
  // Injected-fault count for this connection's fd (disruption
  // attribution: sabotaged vs natural death). Live registry lookup
  // while open; after close() it returns the count snapshotted just
  // before the registry entry was wiped with the fd.
  [[nodiscard]] uint64_t faultInjections() const noexcept;

 private:
  Connection(EventLoop& loop, TcpSocket sock);
  void handleEvents(uint32_t events);
  void handleReadable();
  void handleWritable();
  void updateInterest();
  void appendOut(std::span<const std::byte> bytes);
  void consumeOut(size_t n);
  // Gather-writes queued segments (writev, up to kMaxIov per pass) until
  // the queue empties or the kernel pushes back. Returns the failing
  // write's error, EAGAIN included; shared by flushOut() and close().
  std::error_code writeQueued();
  // writeQueued(), then the drain/close-on-drain follow-ups and
  // write-interest bookkeeping.
  void flushOut();
  // Defers one flushOut() to the end of the current loop iteration so
  // every send() issued while handling this iteration's events shares
  // one syscall.
  void scheduleFlush();

  EventLoop& loop_;
  TcpSocket sock_;
  Buffer in_;
  // Output queue: a deque of segments so a flush can gather-write them
  // with writev without first memcpy-ing into one contiguous block.
  // Small sends merge into the tail segment to keep the iovec list
  // short.
  std::deque<Buffer> out_;
  size_t outBytes_ = 0;
  DataCallback dataCb_;
  CloseCallback closeCb_;
  DrainCallback drainCb_;
  bool registered_ = false;
  uint32_t interest_ = 0;  // epoll event mask currently registered
  bool closeOnDrain_ = false;
  bool closed_ = false;
  bool delayArmed_ = false;  // fault injection: a delayed flush is pending
  uint64_t faultInjections_ = 0;  // snapshotted at close(); see accessor
  bool flushScheduled_ = false;
};

using ConnectionPtr = std::shared_ptr<Connection>;

// Accepts connections on a TcpListener and hands them to a callback.
class Acceptor {
 public:
  using AcceptCallback = std::function<void(TcpSocket)>;

  Acceptor(EventLoop& loop, TcpListener listener, AcceptCallback cb);
  ~Acceptor();
  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  [[nodiscard]] SocketAddr localAddr() const { return listener_.localAddr(); }
  [[nodiscard]] int fd() const noexcept { return listener_.fd(); }
  // Stops accepting and releases the listening socket fd without
  // closing it (Socket Takeover handoff path).
  FdGuard detach();
  // Stops accepting and closes the socket.
  void close();

  // Load-shedding watermarks: pause() deregisters the listener from
  // the loop (SYNs queue in the kernel backlog instead of landing on
  // an overloaded worker); resume() re-arms it. Both idempotent; no-op
  // after close()/detach().
  void pause();
  void resume();
  [[nodiscard]] bool paused() const noexcept { return paused_; }

 private:
  void handleReadable();

  EventLoop& loop_;
  TcpListener listener_;
  AcceptCallback cb_;
  bool paused_ = false;
  // The accept callback may destroy this Acceptor (a proxy tearing
  // down on its last request) or detach() it; the accept loop checks
  // this flag — through a copied shared_ptr — before touching members
  // again.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// Asynchronous TCP connect; invokes the callback exactly once.
class Connector {
 public:
  // On success `sock.valid()`, otherwise ec describes the failure.
  using ConnectCallback = std::function<void(TcpSocket sock,
                                             std::error_code ec)>;

  static void connect(EventLoop& loop, const SocketAddr& peer,
                      ConnectCallback cb,
                      Duration timeout = Duration{5000});
};

}  // namespace zdr
