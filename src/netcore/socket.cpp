#include "netcore/socket.h"

#include <fcntl.h>

#include "netcore/fault_injection.h"
#include "netcore/io_stats.h"
#include "netcore/udp_batch.h"
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>

namespace zdr {

namespace detail {

void setNonBlocking(int fd, bool enabled) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    throwErrno("fcntl(F_GETFL)");
  }
  flags = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    throwErrno("fcntl(F_SETFL)");
  }
}

void setCloExec(int fd) {
  int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
  }
}

int getSoError(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return errno;
  }
  return err;
}

SocketAddr localAddrOf(int fd) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    throwErrno("getsockname");
  }
  return SocketAddr(sa);
}

namespace {

void applyBindOptions(int fd, const BindOptions& opts) {
  int one = 1;
  if (opts.reuseAddr &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    throwErrno("setsockopt(SO_REUSEADDR)");
  }
  if (opts.reusePort &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    throwErrno("setsockopt(SO_REUSEPORT)");
  }
  if (opts.nonBlocking) {
    setNonBlocking(fd, true);
  }
}

FdGuard makeSocket(int domain, int type) {
  FdGuard fd(::socket(domain, type | SOCK_CLOEXEC, 0));
  if (!fd) {
    throwErrno("socket");
  }
  return fd;
}

size_t ioResult(ssize_t n, std::error_code& ec) {
  if (n < 0) {
    ec = errnoCode();
    return 0;
  }
  ec.clear();
  return static_cast<size_t>(n);
}

// Fault-injection helpers: all return immediately (one relaxed atomic
// load) when chaos mode is off.
bool faultErr(int fd, fault::Op op, std::error_code& ec) {
  if (!fault::active()) {
    return false;
  }
  auto plan = fault::FaultRegistry::instance().planFor(fd);
  int err = 0;
  if (plan && plan->injectErr(op, err)) {
    fault::FaultRegistry::instance().noteInjectionOn(fd);
    ec = {err, std::generic_category()};
    return true;
  }
  return false;
}

// Byte-level fate of a stream write: may shrink `len` (short write) or
// fail the whole call with an injected errno.
bool faultWriteFate(int fd, size_t& len, std::error_code& ec) {
  if (!fault::active()) {
    return false;
  }
  auto plan = fault::FaultRegistry::instance().planFor(fd);
  if (!plan) {
    return false;
  }
  auto fate = plan->writeFate(len);
  if (fate.kind == fault::FaultPlan::WriteFate::kKill) {
    fault::FaultRegistry::instance().noteInjectionOn(fd);
    ec = {fate.err, std::generic_category()};
    return true;
  }
  if (fate.kind == fault::FaultPlan::WriteFate::kShort) {
    fault::FaultRegistry::instance().noteInjectionOn(fd);
    len = std::min(len, fate.allow);
  }
  return false;
}

}  // namespace
}  // namespace detail

// ---------------------------------------------------------------- TcpSocket

TcpSocket TcpSocket::fromFd(FdGuard fd) { return TcpSocket(std::move(fd)); }

TcpSocket TcpSocket::connect(const SocketAddr& peer, std::error_code& ec) {
  ec.clear();
  FdGuard fd;
  try {
    fd = detail::makeSocket(AF_INET, SOCK_STREAM);
    detail::setNonBlocking(fd.get(), true);
  } catch (const std::system_error& e) {
    ec = e.code();
    return {};
  }
  sockaddr_in sa = peer.raw();
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0 &&
      errno != EINPROGRESS) {
    ec = errnoCode();
    return {};
  }
  return TcpSocket(std::move(fd));
}

size_t TcpSocket::read(std::span<std::byte> buf, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kRead, ec)) {
    return 0;
  }
  ioStats().readCalls.fetch_add(1, std::memory_order_relaxed);
  size_t n = detail::ioResult(::read(fd_.get(), buf.data(), buf.size()), ec);
  ioStats().bytesRead.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t TcpSocket::write(std::span<const std::byte> buf, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kWrite, ec)) {
    return 0;
  }
  size_t len = buf.size();
  if (detail::faultWriteFate(fd_.get(), len, ec)) {
    return 0;
  }
  ioStats().writeCalls.fetch_add(1, std::memory_order_relaxed);
  // MSG_NOSIGNAL: a peer reset must surface as EPIPE, not kill the process.
  size_t n = detail::ioResult(
      ::send(fd_.get(), buf.data(), len, MSG_NOSIGNAL), ec);
  ioStats().bytesWritten.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t TcpSocket::readv(std::span<const iovec> iov, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kRead, ec)) {
    return 0;
  }
  ioStats().readvCalls.fetch_add(1, std::memory_order_relaxed);
  size_t n = detail::ioResult(
      ::readv(fd_.get(), iov.data(), static_cast<int>(iov.size())), ec);
  ioStats().bytesRead.fetch_add(n, std::memory_order_relaxed);
  return n;
}

size_t TcpSocket::writev(std::span<const iovec> iov, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kWrite, ec)) {
    return 0;
  }
  size_t total = 0;
  for (const auto& v : iov) {
    total += v.iov_len;
  }
  size_t len = total;
  if (detail::faultWriteFate(fd_.get(), len, ec)) {
    return 0;
  }
  // An injected short write shrinks the byte budget: trim a local iovec
  // copy so the kernel never sees the disallowed tail. Gather-writes
  // must truncate exactly like the scalar path or the chaos suites'
  // expectations (retry-from-offset) break.
  std::array<iovec, 64> trimmed;
  std::span<const iovec> out = iov;
  if (len < total) {
    size_t cnt = 0;
    size_t budget = len;
    for (const auto& v : iov) {
      if (budget == 0 || cnt == trimmed.size()) {
        break;
      }
      trimmed[cnt] = v;
      trimmed[cnt].iov_len = std::min(v.iov_len, budget);
      budget -= trimmed[cnt].iov_len;
      ++cnt;
    }
    out = std::span<const iovec>(trimmed.data(), cnt);
    if (out.empty()) {
      ec.clear();
      return 0;
    }
  }
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(out.data());
  msg.msg_iovlen = out.size();
  ioStats().writevCalls.fetch_add(1, std::memory_order_relaxed);
  // sendmsg instead of plain writev(2) so MSG_NOSIGNAL applies, for
  // EPIPE parity with write().
  size_t n = detail::ioResult(::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL), ec);
  ioStats().bytesWritten.fetch_add(n, std::memory_order_relaxed);
  return n;
}

std::error_code TcpSocket::connectError() const {
  int err = detail::getSoError(fd_.get());
  return {err, std::generic_category()};
}

void TcpSocket::shutdownWrite() noexcept { ::shutdown(fd_.get(), SHUT_WR); }

void TcpSocket::setNoDelay(bool enabled) {
  int v = enabled ? 1 : 0;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &v, sizeof(v));
}

SocketAddr TcpSocket::peerAddr() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &len) < 0) {
    throwErrno("getpeername");
  }
  return SocketAddr(sa);
}

// -------------------------------------------------------------- TcpListener

TcpListener::TcpListener(const SocketAddr& addr, const BindOptions& opts,
                         int backlog) {
  FdGuard fd = detail::makeSocket(AF_INET, SOCK_STREAM);
  detail::applyBindOptions(fd.get(), opts);
  sockaddr_in sa = addr.raw();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    throwErrno("bind " + addr.str());
  }
  if (::listen(fd.get(), backlog) < 0) {
    throwErrno("listen " + addr.str());
  }
  fd_ = std::move(fd);
}

TcpListener TcpListener::fromFd(FdGuard fd) {
  return TcpListener(std::move(fd));
}

std::optional<TcpSocket> TcpListener::accept(std::error_code& ec) {
  ec.clear();
  int fd = ::accept4(fd_.get(), nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      ec = errnoCode();
    }
    return std::nullopt;
  }
  return TcpSocket::fromFd(FdGuard(fd));
}

// ---------------------------------------------------------------- UdpSocket

UdpSocket::UdpSocket(const SocketAddr& addr, const BindOptions& opts) {
  FdGuard fd = detail::makeSocket(AF_INET, SOCK_DGRAM);
  // The kernel may hand an ephemeral (port 0) bind with SO_REUSEADDR or
  // SO_REUSEPORT a port that another such same-uid socket already
  // holds, and the two then silently share its datagrams. So a port-0
  // bind goes without both and gets a port no socket holds; a reuseport
  // socket turns SO_REUSEPORT on after the bind, which lets the rest of
  // its ring (bindUdpRing) join that port.
  BindOptions bindOpts = opts;
  if (addr.port() == 0) {
    bindOpts.reuseAddr = false;
    bindOpts.reusePort = false;
  }
  detail::applyBindOptions(fd.get(), bindOpts);
  sockaddr_in sa = addr.raw();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    throwErrno("bind(udp) " + addr.str());
  }
  if (addr.port() == 0 && opts.reusePort) {
    int one = 1;
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) < 0) {
      throwErrno("setsockopt(SO_REUSEPORT)");
    }
  }
  fd_ = std::move(fd);
}

UdpSocket UdpSocket::unbound() {
  FdGuard fd = detail::makeSocket(AF_INET, SOCK_DGRAM);
  detail::setNonBlocking(fd.get(), true);
  return UdpSocket(std::move(fd));
}

UdpSocket UdpSocket::fromFd(FdGuard fd) { return UdpSocket(std::move(fd)); }

size_t UdpSocket::sendTo(std::span<const std::byte> buf,
                         const SocketAddr& peer, std::error_code& ec) {
  int dupes = 0;
  if (fault::active()) {
    if (detail::faultErr(fd_.get(), fault::Op::kSendTo, ec)) {
      return 0;
    }
    auto plan = fault::FaultRegistry::instance().planFor(fd_.get());
    if (plan) {
      if (plan->dropDatagram()) {
        ec.clear();
        return buf.size();  // vanished on the wire, but "sent"
      }
      if (plan->dupDatagram()) {
        dupes = 1;
      }
    }
  }
  sockaddr_in sa = peer.raw();
  ioStats().udpScalarSyscalls.fetch_add(1, std::memory_order_relaxed);
  size_t n = detail::ioResult(
      ::sendto(fd_.get(), buf.data(), buf.size(), 0,
               reinterpret_cast<sockaddr*>(&sa), sizeof(sa)),
      ec);
  if (!ec) {
    ioStats().udpDatagrams.fetch_add(1, std::memory_order_relaxed);
  }
  for (; dupes > 0 && !ec; --dupes) {
    ioStats().udpScalarSyscalls.fetch_add(1, std::memory_order_relaxed);
    if (::sendto(fd_.get(), buf.data(), buf.size(), 0,
                 reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) >= 0) {
      ioStats().udpDatagrams.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return n;
}

size_t UdpSocket::recvFrom(std::span<std::byte> buf, SocketAddr& from,
                           std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kRecvFrom, ec)) {
    return 0;
  }
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  ioStats().udpScalarSyscalls.fetch_add(1, std::memory_order_relaxed);
  size_t n = detail::ioResult(
      ::recvfrom(fd_.get(), buf.data(), buf.size(), 0,
                 reinterpret_cast<sockaddr*>(&sa), &len),
      ec);
  if (!ec) {
    ioStats().udpDatagrams.fetch_add(1, std::memory_order_relaxed);
    from = SocketAddr(sa);
    if (fault::active()) {
      auto plan = fault::FaultRegistry::instance().planFor(fd_.get());
      if (plan && plan->dropDatagram()) {
        // Eat the received datagram: report "nothing there yet".
        ec = std::make_error_code(std::errc::operation_would_block);
        return 0;
      }
    }
  }
  return n;
}

size_t UdpSocket::recvMany(RecvBatch& batch, std::error_code& ec) {
  batch.clear();
  if (detail::faultErr(fd_.get(), fault::Op::kRecvFrom, ec)) {
    return 0;
  }
  fault::FaultPlanPtr plan;
  if (fault::active()) {
    plan = fault::FaultRegistry::instance().planFor(fd_.get());
  }
  const size_t maxB = batch.maxBatch();
  for (size_t i = 0; i < maxB; ++i) {
    if (!batch.bufs_[i].valid()) {
      batch.bufs_[i] = batch.pool_->acquire();
    }
    iovec& iv = batch.iovs_[i];
    iv.iov_base = batch.bufs_[i].data();
    iv.iov_len = batch.bufs_[i].size();
    mmsghdr& h = batch.hdrs_[i];
    std::memset(&h, 0, sizeof(h));
    h.msg_hdr.msg_iov = &iv;
    h.msg_hdr.msg_iovlen = 1;
    h.msg_hdr.msg_name = &batch.raw_[i];
    h.msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  ioStats().udpBatchSyscalls.fetch_add(1, std::memory_order_relaxed);
  int n = ::recvmmsg(fd_.get(), batch.hdrs_.data(),
                     static_cast<unsigned>(maxB), 0, nullptr);
  if (n < 0) {
    ec = errnoCode();
    return 0;
  }
  ec.clear();
  const auto got = static_cast<size_t>(n);
  ioStats().udpDatagrams.fetch_add(got, std::memory_order_relaxed);
  ioStats().udpDatagramsPerSyscall.record(static_cast<double>(got));
  // Per-element fates, applied in stream order.
  for (size_t i = 0; i < got; ++i) {
    size_t len = batch.hdrs_[i].msg_len;
    if (plan) {
      auto fate = plan->dgramFate(fault::Op::kRecvFrom, len);
      if (fate.drop) {
        continue;
      }
      if (fate.allow < len) {
        len = fate.allow;
      }
      batch.slots_.push_back({i, len, SocketAddr(batch.raw_[i])});
      if (fate.dup) {
        batch.slots_.push_back({i, len, SocketAddr(batch.raw_[i])});
      }
    } else {
      batch.slots_.push_back({i, len, SocketAddr(batch.raw_[i])});
    }
  }
  return batch.size();
}

size_t UdpSocket::sendMany(SendBatch& batch, std::error_code& ec) {
  ec.clear();
  const size_t staged = batch.count_;
  if (staged == 0) {
    return 0;
  }
  if (detail::faultErr(fd_.get(), fault::Op::kSendTo, ec)) {
    batch.clear();
    return 0;
  }
  fault::FaultPlanPtr plan;
  if (fault::active()) {
    plan = fault::FaultRegistry::instance().planFor(fd_.get());
  }
  // Build the wire set, applying per-element fates. The arenas were
  // reserved for 2x maxBatch at construction, so push_back never
  // reallocates and the msg_iov pointers taken below stay valid.
  batch.hdrs_.clear();
  batch.iovs_.clear();
  for (size_t i = 0; i < staged; ++i) {
    size_t len = batch.slots_[i].len;
    bool dup = false;
    if (plan) {
      auto fate = plan->dgramFate(fault::Op::kSendTo, len);
      if (fate.drop) {
        continue;  // vanishes on the wire, still reported as sent
      }
      dup = fate.dup;
      if (fate.allow < len) {
        len = fate.allow;
      }
    }
    for (int copy = 0; copy < (dup ? 2 : 1); ++copy) {
      batch.iovs_.push_back({batch.bufs_[i].data(), len});
      mmsghdr h{};
      h.msg_hdr.msg_iov = &batch.iovs_.back();
      h.msg_hdr.msg_iovlen = 1;
      h.msg_hdr.msg_name = &batch.slots_[i].to;
      h.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      batch.hdrs_.push_back(h);
    }
  }
  const size_t wire = batch.hdrs_.size();
  size_t off = 0;
  while (off < wire) {
    ioStats().udpBatchSyscalls.fetch_add(1, std::memory_order_relaxed);
    int n = ::sendmmsg(fd_.get(), batch.hdrs_.data() + off,
                       static_cast<unsigned>(wire - off), 0);
    if (n < 0) {
      ec = errnoCode();
      break;
    }
    ioStats().udpDatagrams.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
    ioStats().udpDatagramsPerSyscall.record(static_cast<double>(n));
    off += static_cast<size_t>(n);
  }
  batch.clear();
  return ec ? off : staged;
}

// --------------------------------------------------------------- UnixSocket

UnixSocket UnixSocket::fromFd(FdGuard fd) { return UnixSocket(std::move(fd)); }

UnixSocket UnixSocket::connect(const std::string& path, std::error_code& ec) {
  ec.clear();
  FdGuard fd;
  try {
    fd = detail::makeSocket(AF_UNIX, SOCK_STREAM);
  } catch (const std::system_error& e) {
    ec = e.code();
    return {};
  }
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    ec = std::make_error_code(std::errc::filename_too_long);
    return {};
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    ec = errnoCode();
    return {};
  }
  return UnixSocket(std::move(fd));
}

size_t UnixSocket::read(std::span<std::byte> buf, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kRead, ec)) {
    return 0;
  }
  return detail::ioResult(::read(fd_.get(), buf.data(), buf.size()), ec);
}

size_t UnixSocket::write(std::span<const std::byte> buf, std::error_code& ec) {
  if (detail::faultErr(fd_.get(), fault::Op::kWrite, ec)) {
    return 0;
  }
  return detail::ioResult(
      ::send(fd_.get(), buf.data(), buf.size(), MSG_NOSIGNAL), ec);
}

// ------------------------------------------------------------- UnixListener

UnixListener::UnixListener(const std::string& path, int backlog) : path_(path) {
  ::unlink(path.c_str());
  FdGuard fd = detail::makeSocket(AF_UNIX, SOCK_STREAM);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    throw std::invalid_argument("UnixListener: path too long: " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    throwErrno("bind(unix) " + path);
  }
  if (::listen(fd.get(), backlog) < 0) {
    throwErrno("listen(unix) " + path);
  }
  fd_ = std::move(fd);
}

std::optional<UnixSocket> UnixListener::accept(std::error_code& ec) {
  ec.clear();
  int fd = ::accept4(fd_.get(), nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      ec = errnoCode();
    }
    return std::nullopt;
  }
  return UnixSocket::fromFd(FdGuard(fd));
}

std::pair<UnixSocket, UnixSocket> unixSocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) < 0) {
    throwErrno("socketpair");
  }
  return {UnixSocket::fromFd(FdGuard(fds[0])),
          UnixSocket::fromFd(FdGuard(fds[1]))};
}

}  // namespace zdr
