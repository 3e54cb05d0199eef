// Thin RAII wrappers over TCP, UDP and UNIX-domain sockets.
//
// Two construction paths matter for this project:
//  * normal bind/listen/connect, and
//  * adoption of an already-open descriptor (`fromFd`), which is how a
//    Socket Takeover recipient resumes serving on inherited sockets.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <system_error>

#include "netcore/fd_guard.h"
#include "netcore/result.h"
#include "netcore/socket_addr.h"

namespace zdr {

class RecvBatch;
class SendBatch;

// Options applied at bind time.
struct BindOptions {
  bool reuseAddr = true;
  // SO_REUSEPORT: multiple sockets may bind the same (ip, port); the
  // kernel hashes incoming packets/SYNs across the socket ring. This is
  // the exact mechanism whose "flux" during naive restarts the paper's
  // Figure 2d measures.
  bool reusePort = false;
  bool nonBlocking = true;
};

namespace detail {
// Shared fd-level helpers.
void setNonBlocking(int fd, bool enabled);
void setCloExec(int fd);
int getSoError(int fd);
SocketAddr localAddrOf(int fd);
}  // namespace detail

// A connected (or connecting) TCP stream socket.
class TcpSocket {
 public:
  TcpSocket() = default;
  // Adopts an already-open connected/accepted socket fd.
  static TcpSocket fromFd(FdGuard fd);
  // Starts a non-blocking connect; completion is signalled by kEvWrite,
  // after which `connectError()` reports SO_ERROR.
  static TcpSocket connect(const SocketAddr& peer, std::error_code& ec);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }

  // Returns bytes read; 0 on orderly EOF. ec set on error (EAGAIN
  // included — callers in the event loop treat EAGAIN as "wait").
  size_t read(std::span<std::byte> buf, std::error_code& ec);
  size_t write(std::span<const std::byte> buf, std::error_code& ec);

  // Scatter read across several buffers in one readv(2) syscall.
  size_t readv(std::span<const iovec> iov, std::error_code& ec);
  // Gather write in one sendmsg(2) (MSG_NOSIGNAL, like write).
  // Injected short-write faults apply to the *total* byte count, so
  // message-level truncation semantics match the scalar write path.
  size_t writev(std::span<const iovec> iov, std::error_code& ec);

  [[nodiscard]] std::error_code connectError() const;
  void shutdownWrite() noexcept;
  void setNoDelay(bool enabled);
  void close() noexcept { fd_.reset(); }
  [[nodiscard]] SocketAddr localAddr() const { return detail::localAddrOf(fd_.get()); }
  [[nodiscard]] SocketAddr peerAddr() const;
  // Relinquishes the fd (e.g. to hand it to another owner).
  FdGuard takeFd() noexcept { return std::move(fd_); }

 private:
  explicit TcpSocket(FdGuard fd) : fd_(std::move(fd)) {}
  FdGuard fd_;
};

// A listening TCP socket.
class TcpListener {
 public:
  TcpListener() = default;
  // Binds and listens; throws std::system_error on failure.
  TcpListener(const SocketAddr& addr, const BindOptions& opts = {},
              int backlog = 128);
  // Adopts an inherited listening socket (Socket Takeover recipient).
  static TcpListener fromFd(FdGuard fd);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  // The actual bound address (resolves port 0 to the kernel pick).
  [[nodiscard]] SocketAddr localAddr() const { return detail::localAddrOf(fd_.get()); }

  // Accepts one connection; empty optional on EAGAIN, ec set otherwise.
  std::optional<TcpSocket> accept(std::error_code& ec);

  FdGuard takeFd() noexcept { return std::move(fd_); }
  void close() noexcept { fd_.reset(); }

 private:
  explicit TcpListener(FdGuard fd) : fd_(std::move(fd)) {}
  FdGuard fd_;
};

// A UDP socket (bound and/or connected).
class UdpSocket {
 public:
  UdpSocket() = default;
  // Binds; throws on failure. SO_REUSEPORT in `opts` enables the
  // kernel socket-ring load spreading discussed in §4.1.
  explicit UdpSocket(const SocketAddr& addr, const BindOptions& opts = {});
  // Unbound socket for pure senders.
  static UdpSocket unbound();
  static UdpSocket fromFd(FdGuard fd);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] SocketAddr localAddr() const { return detail::localAddrOf(fd_.get()); }

  size_t sendTo(std::span<const std::byte> buf, const SocketAddr& peer,
                std::error_code& ec);
  // Returns bytes received; `from` is filled in. EAGAIN → ec set.
  size_t recvFrom(std::span<std::byte> buf, SocketAddr& from,
                  std::error_code& ec);

  // Batched datagram plane (see udp_batch.h). recvMany fills `batch`
  // with up to batch.maxBatch() datagrams in one recvmmsg(2), applies
  // per-element fault fates (drop/duplicate/truncate), and returns the
  // surviving count. ec is set when the kernel had nothing (EAGAIN) or errored; a
  // return of 0 with ec clear means data arrived but every element was
  // dropped by fault injection, so level-triggered callers keep
  // draining on `!ec`.
  size_t recvMany(RecvBatch& batch, std::error_code& ec);
  // Flushes every staged datagram in one sendmmsg(2) and clears the
  // batch. Returns the
  // number of staged datagrams handed to the kernel — an element
  // dropped by fault injection still counts as sent, matching sendTo.
  // On error, returns the wire datagrams out before the failure.
  size_t sendMany(SendBatch& batch, std::error_code& ec);

  FdGuard takeFd() noexcept { return std::move(fd_); }
  void close() noexcept { fd_.reset(); }

 private:
  explicit UdpSocket(FdGuard fd) : fd_(std::move(fd)) {}
  FdGuard fd_;
};

// UNIX-domain stream sockets: the Socket Takeover control channel.
class UnixSocket {
 public:
  UnixSocket() = default;
  static UnixSocket fromFd(FdGuard fd);
  // Blocking connect to a filesystem path.
  static UnixSocket connect(const std::string& path, std::error_code& ec);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  size_t read(std::span<std::byte> buf, std::error_code& ec);
  size_t write(std::span<const std::byte> buf, std::error_code& ec);
  void setNonBlocking(bool enabled) { detail::setNonBlocking(fd_.get(), enabled); }
  void close() noexcept { fd_.reset(); }
  FdGuard takeFd() noexcept { return std::move(fd_); }

 private:
  explicit UnixSocket(FdGuard fd) : fd_(std::move(fd)) {}
  FdGuard fd_;
};

class UnixListener {
 public:
  UnixListener() = default;
  // Binds to `path`, unlinking any stale socket file first.
  explicit UnixListener(const std::string& path, int backlog = 16);

  [[nodiscard]] int fd() const noexcept { return fd_.get(); }
  [[nodiscard]] bool valid() const noexcept { return fd_.valid(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  std::optional<UnixSocket> accept(std::error_code& ec);
  void close() noexcept { fd_.reset(); }

 private:
  FdGuard fd_;
  std::string path_;
};

// Connected socketpair(2) — in-process stand-in for a UNIX channel.
std::pair<UnixSocket, UnixSocket> unixSocketPair();

}  // namespace zdr
