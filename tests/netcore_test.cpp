// Unit tests for the netcore substrate: fd ownership, addresses,
// buffers, sockets.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <thread>
#include <vector>

#include "netcore/buffer.h"
#include "netcore/connection.h"
#include "netcore/event_loop.h"
#include "netcore/fault_injection.h"
#include "netcore/fd_guard.h"
#include "netcore/io_stats.h"
#include "netcore/result.h"
#include "netcore/socket.h"
#include "netcore/socket_addr.h"

namespace zdr {
namespace {

bool fdIsOpen(int fd) { return ::fcntl(fd, F_GETFD) != -1; }

TEST(FdGuardTest, ClosesOnDestruction) {
  int raw = -1;
  {
    FdGuard guard(::open("/dev/null", O_RDONLY));
    ASSERT_TRUE(guard.valid());
    raw = guard.get();
    EXPECT_TRUE(fdIsOpen(raw));
  }
  EXPECT_FALSE(fdIsOpen(raw));
}

TEST(FdGuardTest, MoveTransfersOwnership) {
  FdGuard a(::open("/dev/null", O_RDONLY));
  int raw = a.get();
  FdGuard b(std::move(a));
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), raw);
  EXPECT_TRUE(fdIsOpen(raw));
}

TEST(FdGuardTest, MoveAssignClosesPrevious) {
  FdGuard a(::open("/dev/null", O_RDONLY));
  FdGuard b(::open("/dev/null", O_RDONLY));
  int oldB = b.get();
  b = std::move(a);
  EXPECT_FALSE(fdIsOpen(oldB));
  EXPECT_TRUE(b.valid());
}

TEST(FdGuardTest, ReleaseDisownsWithoutClosing) {
  FdGuard a(::open("/dev/null", O_RDONLY));
  int raw = a.release();
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(fdIsOpen(raw));
  ::close(raw);
}

TEST(FdGuardTest, DupSharesFileTableEntry) {
  FdGuard a(::open("/dev/null", O_RDONLY));
  FdGuard b = a.dup();
  ASSERT_TRUE(b.valid());
  EXPECT_NE(a.get(), b.get());
  a.reset();
  EXPECT_TRUE(fdIsOpen(b.get()));  // dup keeps the description alive
}

TEST(SocketAddrTest, RoundTrip) {
  SocketAddr addr("127.0.0.1", 8080);
  EXPECT_EQ(addr.ipString(), "127.0.0.1");
  EXPECT_EQ(addr.port(), 8080);
  EXPECT_EQ(addr.str(), "127.0.0.1:8080");
  SocketAddr copy(addr.raw());
  EXPECT_EQ(copy, addr);
}

TEST(SocketAddrTest, RejectsBadLiteral) {
  EXPECT_THROW(SocketAddr("not-an-ip", 1), std::invalid_argument);
  EXPECT_THROW(SocketAddr("256.0.0.1", 1), std::invalid_argument);
}

TEST(SocketAddrTest, HashKeyDistinguishesPorts) {
  SocketAddr a("127.0.0.1", 1000);
  SocketAddr b("127.0.0.1", 1001);
  EXPECT_NE(a.hashKey(), b.hashKey());
}

TEST(BufferTest, AppendConsumeView) {
  Buffer buf;
  EXPECT_TRUE(buf.empty());
  buf.append("hello ");
  buf.append("world");
  EXPECT_EQ(buf.view(), "hello world");
  buf.consume(6);
  EXPECT_EQ(buf.view(), "world");
  buf.consume(5);
  EXPECT_TRUE(buf.empty());
}

TEST(BufferTest, BigEndianIntegers) {
  Buffer buf;
  buf.appendU8(0xAB);
  buf.appendU16(0x1234);
  buf.appendU32(0xDEADBEEF);
  buf.appendU64(0x0102030405060708ULL);
  EXPECT_EQ(buf.peekU8(0), 0xAB);
  EXPECT_EQ(buf.peekU16(1), 0x1234);
  EXPECT_EQ(buf.peekU32(3), 0xDEADBEEF);
  EXPECT_EQ(buf.peekU64(7), 0x0102030405060708ULL);
}

TEST(BufferTest, CompactionPreservesContent) {
  Buffer buf;
  std::string big(10000, 'x');
  buf.append(big);
  buf.append("tail");
  buf.consume(10000);  // forces compaction path
  EXPECT_EQ(buf.view(), "tail");
}

TEST(BufferTest, WritableTailFillAndCommit) {
  // The readv hot path: reserve a tail, let the kernel (here: memcpy)
  // fill it, then commit only what actually arrived.
  Buffer buf;
  buf.append("head:");
  buf.ensureWritable(64);
  auto span = buf.writableSpan();
  ASSERT_GE(span.size(), 64u);
  std::string payload = "payload";
  std::memcpy(span.data(), payload.data(), payload.size());
  buf.commit(payload.size());
  EXPECT_EQ(buf.view(), "head:payload");
}

TEST(BufferTest, CommitZeroAndUncommittedBytesInvisible) {
  Buffer buf;
  buf.ensureWritable(32);
  auto span = buf.writableSpan();
  span[0] = std::byte{'x'};  // written but never committed
  buf.commit(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.view(), "");
}

TEST(BufferTest, EnsureWritableSurvivesConsumedPrefix) {
  // ensureWritable may compact (reclaiming the consumed prefix) or
  // grow; either way readable content is preserved and the requested
  // capacity appears.
  Buffer buf;
  buf.append(std::string(4096, 'a'));
  buf.append("keep");
  buf.consume(4096);
  buf.ensureWritable(16384);
  EXPECT_GE(buf.writableSpan().size(), 16384u);
  EXPECT_EQ(buf.view(), "keep");
  buf.append("!");
  EXPECT_EQ(buf.view(), "keep!");
}

TEST(BufferTest, ToStringBounded) {
  Buffer buf;
  buf.append("abcdef");
  EXPECT_EQ(buf.toString(3), "abc");
  EXPECT_EQ(buf.toString(100), "abcdef");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_FALSE(ok.error());

  Result<int> err(std::make_error_code(std::errc::timed_out));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error(), std::errc::timed_out);
  EXPECT_EQ(err.valueOr(-1), -1);
}

TEST(SocketTest, TcpListenerResolvesPortZero) {
  TcpListener listener(SocketAddr::loopback(0));
  EXPECT_GT(listener.localAddr().port(), 0);
}

TEST(SocketTest, UdpReusePortAllowsTwoBinds) {
  BindOptions opts;
  opts.reusePort = true;
  UdpSocket a(SocketAddr::loopback(0), opts);
  UdpSocket b(a.localAddr(), opts);  // second bind on same port
  EXPECT_EQ(a.localAddr().port(), b.localAddr().port());
}

TEST(SocketTest, UdpWithoutReusePortConflicts) {
  // Without SO_REUSEADDR/SO_REUSEPORT a second bind on the same UDP
  // address must fail — this is the "flux" precondition of §4.1.
  BindOptions strict;
  strict.reuseAddr = false;
  UdpSocket a(SocketAddr::loopback(0), strict);
  EXPECT_THROW(UdpSocket b(a.localAddr(), strict), std::system_error);
}

TEST(SocketTest, UdpSendRecvLoopback) {
  UdpSocket server(SocketAddr::loopback(0));
  UdpSocket client(SocketAddr::loopback(0));
  std::string msg = "ping";
  std::error_code ec;
  client.sendTo(std::as_bytes(std::span(msg.data(), msg.size())),
                server.localAddr(), ec);
  ASSERT_FALSE(ec);
  // Loopback delivery is immediate but give the kernel a beat.
  std::array<std::byte, 64> buf;
  SocketAddr from;
  size_t n = 0;
  for (int i = 0; i < 100; ++i) {
    n = server.recvFrom(buf, from, ec);
    if (!ec) {
      break;
    }
    usleep(1000);
  }
  ASSERT_FALSE(ec);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(from.port(), client.localAddr().port());
}

TEST(SocketTest, UnixListenerAcceptsConnection) {
  std::string path = "/tmp/zdr_test_unix_" + std::to_string(::getpid());
  UnixListener listener(path);
  std::error_code ec;
  UnixSocket client = UnixSocket::connect(path, ec);
  ASSERT_FALSE(ec);
  auto accepted = listener.accept(ec);
  ASSERT_TRUE(accepted.has_value());
  std::string msg = "hi";
  client.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  ASSERT_FALSE(ec);
  std::array<std::byte, 16> buf;
  size_t n = accepted->read(buf, ec);
  EXPECT_EQ(n, 2u);
  ::unlink(path.c_str());
}

TEST(SocketTest, SocketPairBidirectional) {
  auto [a, b] = unixSocketPair();
  std::error_code ec;
  std::string msg = "x";
  a.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  std::array<std::byte, 4> buf;
  EXPECT_EQ(b.read(buf, ec), 1u);
}

// ----------------------------------------------------------- Connection

// send() only queues; the gather-write runs at the end of the loop
// iteration. A close() earlier in that same iteration must push the
// whole queue — a segment past the merge cap, then a burst of small
// sends merged behind it — through the shared gather helper, in order.
TEST(ConnectionTest, CloseDrainsLargeSegmentAndBurstInOrder) {
  TcpListener listener(SocketAddr::loopback(0));
  std::error_code ec;
  TcpSocket clientSock = TcpSocket::connect(listener.localAddr(), ec);
  ASSERT_FALSE(ec);
  pollfd out{clientSock.fd(), POLLOUT, 0};
  ASSERT_EQ(::poll(&out, 1, 2000), 1);
  std::optional<TcpSocket> peer;
  for (int i = 0; i < 2000 && !peer; ++i) {
    peer = listener.accept(ec);
    if (!peer) {
      usleep(1000);
    }
  }
  ASSERT_TRUE(peer.has_value());

  // 40 KiB + 64 x 64 B = 44 KiB: under the loopback send buffer, so
  // the one best-effort drain in close() can hand over every byte.
  std::string big(40 * 1024, '\0');
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('A' + i % 23);
  }
  std::string expected = big;
  std::vector<std::string> burst;
  for (int i = 0; i < 64; ++i) {
    burst.emplace_back(64, static_cast<char>('a' + i % 26));
    burst.back()[0] = static_cast<char>('0' + i % 10);
    expected += burst.back();
  }

  EventLoopThread t;
  std::error_code closeReason{std::make_error_code(std::errc::io_error)};
  bool closed = false;
  uint64_t writevBefore = ioStats().writevCalls.load();
  uint64_t writeBefore = ioStats().writeCalls.load();
  t.runSync([&] {
    auto conn = Connection::make(t.loop(), std::move(clientSock));
    conn->setCloseCallback([&](std::error_code why) {
      closed = true;
      closeReason = why;
    });
    conn->start();
    conn->send(std::string_view(big));
    for (const auto& s : burst) {
      conn->send(std::string_view(s));
    }
    EXPECT_EQ(conn->pendingOutput(), expected.size());  // nothing written yet
    conn->close();
  });
  EXPECT_TRUE(closed);
  EXPECT_FALSE(closeReason);
  EXPECT_GT(ioStats().writevCalls.load(), writevBefore);
  EXPECT_EQ(ioStats().writeCalls.load(), writeBefore);

  // Read to EOF: every byte, in send order, then the FIN.
  std::string got;
  std::array<std::byte, 16384> buf;
  for (int spins = 0; spins < 2000; ++spins) {
    size_t n = peer->read(buf, ec);
    if (!ec && n == 0) {
      break;  // EOF
    }
    if (ec) {
      pollfd in{peer->fd(), POLLIN, 0};
      ::poll(&in, 1, 5);
      continue;
    }
    got.append(reinterpret_cast<const char*>(buf.data()), n);
  }
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
}

// ------------------------------------------------------ fault injection

TEST(FaultInjectionTest, DisarmedByDefaultAndPlansResolveByPriority) {
  EXPECT_FALSE(fault::active());
  fault::ScopedChaosMode chaos;
  EXPECT_TRUE(fault::active());

  auto& reg = fault::FaultRegistry::instance();
  fault::FaultSpec spec;
  auto tagPlan = reg.armTag("test.tag", spec);
  auto fdPlan = reg.armFd(7, spec);
  auto wildcard = reg.armAll(spec);

  reg.bindTag(7, "test.tag");
  EXPECT_EQ(reg.planFor(7), fdPlan);  // fd beats tag
  reg.disarmFd(7);
  EXPECT_EQ(reg.planFor(7), tagPlan);  // tag beats wildcard
  reg.onFdClosed(7);
  EXPECT_EQ(reg.planFor(7), wildcard);  // binding gone ⇒ wildcard
}

TEST(FaultInjectionTest, SeededDecisionsReplayIdentically) {
  fault::ScopedChaosMode chaos;
  fault::FaultSpec spec;
  spec.seed = 1234;
  spec.dropSendProb = 0.5;
  auto& reg = fault::FaultRegistry::instance();

  std::vector<bool> first, second;
  auto a = reg.armTag("replay", spec);
  for (int i = 0; i < 64; ++i) {
    first.push_back(a->dropSend());
  }
  auto b = reg.armTag("replay", spec);  // fresh plan, same seed
  for (int i = 0; i < 64; ++i) {
    second.push_back(b->dropSend());
  }
  EXPECT_EQ(first, second);
  EXPECT_TRUE(std::count(first.begin(), first.end(), true) > 0);
  EXPECT_TRUE(std::count(first.begin(), first.end(), false) > 0);
}

TEST(FaultInjectionTest, BudgetsAndSkipGateInjections) {
  fault::ScopedChaosMode chaos;
  fault::FaultSpec spec;
  spec.errProb = 1.0;
  spec.errOp = fault::Op::kWrite;
  spec.errErrno = EPIPE;
  spec.errSkip = 2;
  spec.errBudget = 3;
  auto plan =
      fault::FaultRegistry::instance().armTag("budget", spec);

  int injected = 0;
  for (int i = 0; i < 10; ++i) {
    int err = 0;
    if (plan->injectErr(fault::Op::kWrite, err)) {
      EXPECT_EQ(err, EPIPE);
      ++injected;
    }
  }
  EXPECT_EQ(injected, 3);  // 2 skipped, 3 injected, budget exhausted
  int err = 0;
  EXPECT_FALSE(plan->injectErr(fault::Op::kRead, err));  // op mismatch
}

TEST(FaultInjectionTest, KillAtByteSeversTcpStreamAtBoundary) {
  fault::ScopedChaosMode chaos;
  TcpListener listener(SocketAddr::loopback(0));
  std::error_code ec;
  TcpSocket client = TcpSocket::connect(listener.localAddr(), ec);
  ASSERT_FALSE(ec);
  // Non-blocking connect: wait until the loopback handshake completes.
  pollfd pfd{client.fd(), POLLOUT, 0};
  ASSERT_GT(::poll(&pfd, 1, 2000), 0);

  fault::FaultSpec spec;
  spec.killAtByte = 10;
  spec.killErrno = ECONNRESET;
  fault::FaultRegistry::instance().armFd(client.fd(), spec);

  std::string msg = "0123456789abcdef";  // 16 bytes; only 10 survive
  size_t n = client.write(
      std::as_bytes(std::span(msg.data(), msg.size())), ec);
  EXPECT_FALSE(ec);
  EXPECT_EQ(n, 10u);  // short write at the kill boundary
  n = client.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(ec, std::errc::connection_reset);  // dead forever after
  EXPECT_GE(fault::FaultRegistry::instance().stats().writesKilled, 1u);
}

TEST(FaultInjectionTest, UdpDropAndDuplicate) {
  fault::ScopedChaosMode chaos;
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();

  // Duplicate every datagram.
  fault::FaultSpec dupSpec;
  dupSpec.udpDupProb = 1.0;
  fault::FaultRegistry::instance().armFd(sender.fd(), dupSpec);
  std::error_code ec;
  std::string msg = "dgram";
  sender.sendTo(std::as_bytes(std::span(msg.data(), msg.size())),
                receiver.localAddr(), ec);
  ASSERT_FALSE(ec);
  std::array<std::byte, 64> buf;
  SocketAddr from;
  auto recvOne = [&]() -> size_t {
    for (int i = 0; i < 500; ++i) {
      size_t n = receiver.recvFrom(buf, from, ec);
      if (!ec) {
        return n;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0;
  };
  EXPECT_EQ(recvOne(), msg.size());
  EXPECT_EQ(recvOne(), msg.size());  // the dupe
  EXPECT_GE(
      fault::FaultRegistry::instance().stats().datagramsDuplicated, 1u);

  // Drop every datagram: reported sent, never delivered.
  fault::FaultSpec dropSpec;
  dropSpec.udpDropProb = 1.0;
  fault::FaultRegistry::instance().armFd(sender.fd(), dropSpec);
  EXPECT_EQ(sender.sendTo(std::as_bytes(std::span(msg.data(), msg.size())),
                          receiver.localAddr(), ec),
            msg.size());
  EXPECT_FALSE(ec);
  EXPECT_EQ(receiver.recvFrom(buf, from, ec), 0u);
  EXPECT_EQ(ec, std::errc::operation_would_block);  // nothing arrived
}

}  // namespace
}  // namespace zdr
