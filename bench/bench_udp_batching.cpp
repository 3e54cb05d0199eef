// Batched datagram plane: throughput and syscall economics of
// recvmmsg/sendmmsg on the real quicish serving path (REUSEPORT ring +
// batched replies).
//
// Sweeps server REUSEPORT workers {1, 4} and reports datagrams/sec,
// UDP syscalls per datagram, and p99 burst RTT per cell. Emits
// BENCH_udp_batching.json; CI gates on the committed baseline
// (scripts/check_bench_regression.py --gate) and this binary itself
// fails if syscalls/datagram exceeds kMaxSyscallsPerDatagram at
// workers=4. The bound is structural (a 16-deep burst moves in a
// couple of batched syscalls per side, where one syscall per datagram
// would read 1.0 or more) and so holds even under --smoke.
//
// Usage: bench_udp_batching [--smoke]
#include <poll.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "metrics/hdr_histogram.h"
#include "netcore/buffer_pool.h"
#include "netcore/event_loop.h"
#include "netcore/io_stats.h"
#include "netcore/socket.h"
#include "netcore/udp_batch.h"
#include "quicish/packet.h"
#include "quicish/server.h"

using namespace zdr;

namespace {

constexpr size_t kBurst = 16;
// Acceptance bound at workers=4. Batched reads ~0.15 on a 4-vCPU VM;
// one syscall per datagram could not go below 1.0.
constexpr double kMaxSyscallsPerDatagram = 0.5;

struct Cell {
  size_t udpWorkers = 1;
  uint64_t datagrams = 0;     // wire datagrams moved in the window
  uint64_t udpSyscalls = 0;   // recv+send syscalls in the window
  double seconds = 0;
  double datagramsPerSec = 0;
  double syscallsPerDatagram = 0;
  double p99BurstMs = 0;  // send-16 → ack-16 round trip
};

// One open-loop client flow on its own thread: bursts kBurst kData
// packets through a SendBatch, drains the acks with recvMany, records
// the burst RTT. Deliberately not an EventLoop client — the bench
// wants the datagram plane hot, not epoll bookkeeping.
void clientLoop(const SocketAddr& vip, uint64_t connId,
                std::atomic<bool>& stop, HdrHistogram& burstMs,
                std::atomic<uint64_t>& acked) {
  UdpSocket sock(SocketAddr::loopback(0));
  BufferPool pool;
  SendBatch tx(pool, kBurst);
  RecvBatch rx(pool, kBurst);
  std::error_code ec;
  Buffer scratch;

  auto pushPacket = [&](quicish::PacketType type, uint32_t seq) {
    quicish::Packet p;
    p.type = type;
    p.connId = connId;
    p.seq = seq;
    p.payload.assign(32, 'x');
    scratch.clear();
    quicish::encode(p, scratch);
    tx.push(scratch.readable(), vip);
  };

  // Busy-spinning recvMany would both starve the server of CPU and
  // charge one counted-but-empty EAGAIN syscall per spin, drowning the
  // metric this bench exists to measure. poll(2) is the wait
  // primitive; only readable sockets are drained.
  auto waitReadable = [&](int timeoutMs) {
    struct pollfd pfd{sock.fd(), POLLIN, 0};
    return ::poll(&pfd, 1, timeoutMs) > 0;
  };

  // Open the flow and wait for its ack so the server owns it before
  // the measured bursts start.
  pushPacket(quicish::PacketType::kInitial, 0);
  sock.sendMany(tx, ec);
  for (int spin = 0; spin < 2000 && rx.size() == 0; ++spin) {
    if (waitReadable(5)) {
      sock.recvMany(rx, ec);
    }
  }

  uint32_t seq = 1;
  while (!stop.load(std::memory_order_relaxed)) {
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < kBurst; ++i) {
      pushPacket(quicish::PacketType::kData, seq++);
    }
    sock.sendMany(tx, ec);
    size_t got = 0;
    // Drain until the burst's acks are back (50 ms safety valve).
    while (got < kBurst &&
           std::chrono::steady_clock::now() - t0 <
               std::chrono::milliseconds(50)) {
      if (!waitReadable(10)) {
        continue;
      }
      got += sock.recvMany(rx, ec);
    }
    acked.fetch_add(got, std::memory_order_relaxed);
    burstMs.record(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
}

Cell runCell(size_t udpWorkers) {
  Cell cell;
  cell.udpWorkers = udpWorkers;

  EventLoopThread serverThread("udp-bench-srv");
  std::unique_ptr<quicish::Server> server;
  serverThread.runSync([&] {
    quicish::Server::Options so;
    so.numWorkers = udpWorkers;
    server = std::make_unique<quicish::Server>(
        serverThread.loop(), SocketAddr::loopback(0), so);
  });
  SocketAddr vip = server->vip();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> acked{0};
  HdrHistogram burstMs;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < udpWorkers; ++c) {
    clients.emplace_back([&, c] {
      clientLoop(vip, 1000 * udpWorkers + c, stop, burstMs, acked);
    });
  }

  // Warm up the flows, then measure a clean window of wire traffic.
  bench::waitUntil([&] { return acked.load() >= kBurst * udpWorkers; },
                   5000);
  uint64_t dgramsStart = ioStats().udpDatagrams.load();
  uint64_t syscallsStart = ioStats().totalUdpSyscalls();
  auto t0 = std::chrono::steady_clock::now();

  bench::sleepMs(bench::scaled<long>(2000, 250));

  cell.datagrams = ioStats().udpDatagrams.load() - dgramsStart;
  cell.udpSyscalls = ioStats().totalUdpSyscalls() - syscallsStart;
  cell.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true);
  for (auto& t : clients) {
    t.join();
  }
  serverThread.runSync([&] { server.reset(); });

  cell.datagramsPerSec = static_cast<double>(cell.datagrams) / cell.seconds;
  if (cell.datagrams > 0) {
    cell.syscallsPerDatagram = static_cast<double>(cell.udpSyscalls) /
                               static_cast<double>(cell.datagrams);
  }
  cell.p99BurstMs = burstMs.quantile(0.99);
  return cell;
}

void writeJson(const std::vector<Cell>& cells, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"udp_batching\",\n  \"smoke\": "
      << (bench::smokeMode() ? "true" : "false") << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\"udp_workers\": " << c.udpWorkers
        << ", \"datagrams\": " << c.datagrams
        << ", \"udp_syscalls\": " << c.udpSyscalls
        << ", \"seconds\": " << c.seconds
        << ", \"datagrams_per_sec\": " << c.datagramsPerSec
        << ", \"syscalls_per_datagram\": " << c.syscallsPerDatagram
        << ", \"p99_burst_ms\": " << c.p99BurstMs << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      ::setenv("ZDR_BENCH_SMOKE", "1", 1);
    }
  }

  bench::banner(
      "Batched datagram plane — recvmmsg/sendmmsg × REUSEPORT workers",
      "moving a whole batch per syscall keeps UDP syscalls per datagram "
      "well under one on the takeover-era serving path");

  std::vector<Cell> cells;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    cells.push_back(runCell(workers));
    const Cell& c = cells.back();
    std::printf(
        "workers=%zu  %10.0f dgrams/s  %6.3f syscalls/dgram"
        "  p99 burst %7.3f ms  (%llu dgrams, %llu syscalls)\n",
        c.udpWorkers, c.datagramsPerSec, c.syscallsPerDatagram, c.p99BurstMs,
        static_cast<unsigned long long>(c.datagrams),
        static_cast<unsigned long long>(c.udpSyscalls));
  }

  writeJson(cells, "BENCH_udp_batching.json");
  std::printf("\nwrote BENCH_udp_batching.json\n");

  uint64_t total = 0;
  for (const auto& c : cells) {
    total += c.datagrams;
  }
  if (total == 0) {
    std::fprintf(stderr, "error: no datagrams moved in any cell\n");
    return 1;
  }
  // Acceptance bound: at most kMaxSyscallsPerDatagram at workers=4.
  const Cell& w4 = cells.back();
  if (w4.datagrams == 0 || w4.syscallsPerDatagram > kMaxSyscallsPerDatagram) {
    std::fprintf(stderr,
                 "error: %.3f syscalls/datagram at workers=4 exceeds the "
                 "%.2f bound\n",
                 w4.syscallsPerDatagram, kMaxSyscallsPerDatagram);
    return 1;
  }
  return 0;
}
