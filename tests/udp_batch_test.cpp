// Batched datagram plane: BufferPool accounting, recvmmsg/sendmmsg
// roundtrips through recvMany/sendMany, datagram-granular fault
// injection inside batches, and the syscall ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netcore/buffer_pool.h"
#include "netcore/fault_injection.h"
#include "netcore/io_stats.h"
#include "netcore/socket.h"
#include "netcore/socket_addr.h"
#include "netcore/udp_batch.h"

namespace zdr {
namespace {

std::span<const std::byte> bytes(const std::string& s) {
  return std::as_bytes(std::span(s.data(), s.size()));
}

std::string str(std::span<const std::byte> b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

TEST(BufferPoolTest, FreeListRecyclesAndCounts) {
  BufferPool pool(512, 2);
  auto s = pool.stats();
  EXPECT_EQ(s.bufSize, 512u);
  EXPECT_EQ(s.capacity, 2u);

  auto a = pool.acquire();
  auto b = pool.acquire();
  s = pool.stats();
  EXPECT_EQ(s.misses, 2u);  // cold pool: both heap-allocated
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.outstanding, 2u);

  a.reset();
  b.reset();
  s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.freeCount, 2u);

  auto c = pool.acquire();
  s = pool.stats();
  EXPECT_EQ(s.hits, 1u);  // served from the free list
  EXPECT_EQ(c.size(), 512u);

  // A third concurrent buffer overflows capacity on release.
  auto d = pool.acquire();
  auto e = pool.acquire();
  c.reset();
  d.reset();
  e.reset();
  s = pool.stats();
  EXPECT_EQ(s.freeCount, 2u);
  EXPECT_EQ(s.discarded, 1u);
}

TEST(BufferPoolTest, OversizeHonouredButNeverFreeListed) {
  BufferPool pool(256, 4);
  auto big = pool.acquire(1024);
  EXPECT_GE(big.size(), 1024u);
  EXPECT_EQ(pool.stats().misses, 1u);
  big.reset();
  auto s = pool.stats();
  EXPECT_EQ(s.freeCount, 0u);  // oversize buffers are not recycled
  EXPECT_EQ(s.discarded, 1u);
}

TEST(UdpBatchTest, RecvManyRoundtrip) {
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  std::error_code ec;
  for (int i = 0; i < 5; ++i) {
    sender.sendTo(bytes("dgram" + std::to_string(i)),
                  receiver.localAddr(), ec);
    ASSERT_FALSE(ec);
  }
  BufferPool pool;
  RecvBatch batch(pool);
  std::vector<std::string> got;
  for (int spin = 0; spin < 500 && got.size() < 5; ++spin) {
    receiver.recvMany(batch, ec);
    for (size_t i = 0; i < batch.size(); ++i) {
      got.push_back(str(batch.data(i)));
      EXPECT_EQ(batch.from(i).port(), sender.localAddr().port());
    }
  }
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], "dgram" + std::to_string(i));
  }
  // Drained: ec reports would-block, batch empty.
  receiver.recvMany(batch, ec);
  EXPECT_TRUE(ec);
  EXPECT_EQ(batch.size(), 0u);
}

TEST(UdpBatchTest, SendManyRoundtrip) {
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  BufferPool pool;
  SendBatch batch(pool);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        batch.push(bytes("out" + std::to_string(i)), receiver.localAddr()));
  }
  std::error_code ec;
  EXPECT_EQ(sender.sendMany(batch, ec), 4u);
  EXPECT_FALSE(ec);
  EXPECT_TRUE(batch.empty());  // flushed batches reset for reuse

  RecvBatch rx(pool);
  std::vector<std::string> got;
  for (int spin = 0; spin < 500 && got.size() < 4; ++spin) {
    receiver.recvMany(rx, ec);
    for (size_t i = 0; i < rx.size(); ++i) {
      got.push_back(str(rx.data(i)));
    }
  }
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(got[static_cast<size_t>(i)], "out" + std::to_string(i));
  }
}

TEST(UdpBatchTest, StageCommitEncodesInPlace) {
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  BufferPool pool;
  SendBatch batch(pool);
  std::span<std::byte> dst = batch.stage(receiver.localAddr(), 3);
  ASSERT_GE(dst.size(), 3u);
  dst[0] = std::byte{'a'};
  dst[1] = std::byte{'b'};
  dst[2] = std::byte{'c'};
  batch.commit(3);
  std::error_code ec;
  EXPECT_EQ(sender.sendMany(batch, ec), 1u);
  RecvBatch rx(pool);
  for (int spin = 0; spin < 500 && rx.size() == 0; ++spin) {
    receiver.recvMany(rx, ec);
    if (rx.size() > 0) {
      break;
    }
  }
  ASSERT_EQ(rx.size(), 1u);
  EXPECT_EQ(str(rx.data(0)), "abc");
}

TEST(UdpBatchTest, SendBatchRejectsPushWhenFull) {
  BufferPool pool;
  SendBatch batch(pool, 2);
  SocketAddr to = SocketAddr::loopback(1);
  EXPECT_TRUE(batch.push(bytes("a"), to));
  EXPECT_TRUE(batch.push(bytes("b"), to));
  EXPECT_FALSE(batch.push(bytes("c"), to));
  EXPECT_TRUE(batch.stage(to).empty());
  EXPECT_EQ(batch.size(), 2u);
}

TEST(UdpBatchTest, RecvManyReusesPooledBuffers) {
  // recvMany pins maxBatch buffers up front, so the counts below are
  // exact.
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  BufferPool pool;
  RecvBatch batch(pool, 4);
  std::error_code ec;
  for (int round = 0; round < 3; ++round) {
    sender.sendTo(bytes("x"), receiver.localAddr(), ec);
    size_t got = 0;
    for (int spin = 0; spin < 500 && got == 0; ++spin) {
      got = receiver.recvMany(batch, ec);
    }
    ASSERT_EQ(got, 1u);
  }
  // Round 1 allocates (misses); later rounds ride the free list.
  auto s = pool.stats();
  EXPECT_EQ(s.misses, 4u);
  EXPECT_GE(s.hits, 8u);
}

// A batch whose plan says "drop element 2 and duplicate element 4"
// must yield exactly the surviving set.
TEST(UdpBatchFaultTest, DropElement2DupElement4ExactSurvivors) {
  fault::ScopedChaosMode chaos;
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  fault::FaultSpec spec;
  spec.dropDatagramAt = {2};
  spec.dupDatagramAt = {4};
  fault::FaultRegistry::instance().armFd(receiver.fd(), spec);

  std::error_code ec;
  for (int i = 0; i < 6; ++i) {
    sender.sendTo(bytes("d" + std::to_string(i)), receiver.localAddr(), ec);
    ASSERT_FALSE(ec);
  }
  BufferPool pool;
  RecvBatch batch(pool);
  std::vector<std::string> got;
  for (int spin = 0; spin < 500 && got.size() < 6; ++spin) {
    receiver.recvMany(batch, ec);
    for (size_t i = 0; i < batch.size(); ++i) {
      got.push_back(str(batch.data(i)));
    }
  }
  std::vector<std::string> want = {"d0", "d1", "d3", "d4", "d4", "d5"};
  EXPECT_EQ(got, want);
  EXPECT_GE(fault::FaultRegistry::instance().stats().datagramsDropped, 1u);
  EXPECT_GE(
      fault::FaultRegistry::instance().stats().datagramsDuplicated, 1u);
}

TEST(UdpBatchFaultTest, SendSideElementDropAndDup) {
  fault::ScopedChaosMode chaos;
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  fault::FaultSpec spec;
  spec.dropDatagramAt = {1};
  spec.dupDatagramAt = {2};
  fault::FaultRegistry::instance().armFd(sender.fd(), spec);

  BufferPool pool;
  SendBatch batch(pool);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        batch.push(bytes("s" + std::to_string(i)), receiver.localAddr()));
  }
  std::error_code ec;
  // A dropped element still counts as sent (matches scalar sendTo).
  EXPECT_EQ(sender.sendMany(batch, ec), 3u);
  EXPECT_FALSE(ec);

  RecvBatch rx(pool);
  std::vector<std::string> got;
  for (int spin = 0; spin < 500 && got.size() < 3; ++spin) {
    receiver.recvMany(rx, ec);
    for (size_t i = 0; i < rx.size(); ++i) {
      got.push_back(str(rx.data(i)));
    }
  }
  std::vector<std::string> want = {"s0", "s2", "s2"};
  EXPECT_EQ(got, want);
}

TEST(UdpBatchFaultTest, ElementTruncation) {
  fault::ScopedChaosMode chaos;
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  fault::FaultSpec spec;
  spec.truncDatagramAt = {0};
  spec.truncDatagramTo = 3;
  fault::FaultRegistry::instance().armFd(receiver.fd(), spec);

  std::error_code ec;
  sender.sendTo(bytes("hello-world"), receiver.localAddr(), ec);
  sender.sendTo(bytes("intact"), receiver.localAddr(), ec);

  BufferPool pool;
  RecvBatch batch(pool);
  std::vector<std::string> got;
  for (int spin = 0; spin < 500 && got.size() < 2; ++spin) {
    receiver.recvMany(batch, ec);
    for (size_t i = 0; i < batch.size(); ++i) {
      got.push_back(str(batch.data(i)));
    }
  }
  std::vector<std::string> want = {"hel", "intact"};
  EXPECT_EQ(got, want);
  EXPECT_GE(
      fault::FaultRegistry::instance().stats().datagramsTruncated, 1u);
}

TEST(UdpBatchTest, IoStatsAccountSyscallMode) {
  UdpSocket receiver(SocketAddr::loopback(0));
  UdpSocket sender = UdpSocket::unbound();
  BufferPool pool;
  SendBatch tx(pool);
  RecvBatch rx(pool);
  std::error_code ec;

  uint64_t batchBefore =
      ioStats().udpBatchSyscalls.load(std::memory_order_relaxed);
  uint64_t scalarBefore =
      ioStats().udpScalarSyscalls.load(std::memory_order_relaxed);
  for (int i = 0; i < 3; ++i) {
    tx.push(bytes("m"), receiver.localAddr());
  }
  sender.sendMany(tx, ec);
  size_t got = 0;
  for (int spin = 0; spin < 500 && got < 3; ++spin) {
    got += receiver.recvMany(rx, ec);
  }
  ASSERT_EQ(got, 3u);
  EXPECT_GT(ioStats().udpBatchSyscalls.load(std::memory_order_relaxed),
            batchBefore);
  // recvMany/sendMany never fall back to one syscall per datagram.
  EXPECT_EQ(ioStats().udpScalarSyscalls.load(std::memory_order_relaxed),
            scalarBefore);

  // The single-datagram API is what the scalar counter counts.
  sender.sendTo(bytes("s"), receiver.localAddr(), ec);
  ASSERT_FALSE(ec);
  EXPECT_EQ(ioStats().udpScalarSyscalls.load(std::memory_order_relaxed),
            scalarBefore + 1);
}

}  // namespace
}  // namespace zdr
