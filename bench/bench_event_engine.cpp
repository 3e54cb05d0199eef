// Event-engine economics: idle-connection memory, cross-thread wakeup
// latency per IoBackend, and the timer heap's arm/cancel/fire cost.
//
// Two cell families in BENCH_event_engine.json:
//
//   * idle      — one loop parks an idle fleet (readiness interest +
//     one idle-timeout timer per conn) and reports resident bytes per
//     conn (engine bookkeeping only; kernel socket buffers don't show
//     in RSS) plus cross-thread wakeup p99 with the fleet parked, per
//     backend.
//   * timers    — direct TimerHeap cost with a standing population of
//     1k vs 1M (smoke: 32k) background timers: arm and cancel of 10k
//     probes, and the fire path (10k timers due at once, drained by one
//     advance), each in ns per timer.
//
// fd budget: each idle conn is one socketpair (2 fds). The bench
// raises RLIMIT_NOFILE to the hard cap, then clamps the fleet size to
// what it actually got and logs the clamp — CI runners and dev boxes
// differ wildly here.
//
// Usage: bench_event_engine   (ZDR_BENCH_SMOKE=1 for the CI pass;
//        ZDR_IO_BACKEND selects the product's default backend; this
//        bench pins each idle cell's backend itself)
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics/hdr_histogram.h"
#include "netcore/event_loop.h"
#include "netcore/io_stats.h"
#include "netcore/io_uring_backend.h"
#include "netcore/timer_queue.h"

using namespace zdr;

namespace {

struct IdleCell {
  std::string backend;
  size_t connections = 0;
  double idleConnKb = 0;
  double wakeupP99Ns = 0;
};

struct TimerCell {
  size_t timers = 0;
  double armNs = 0;
  double cancelNs = 0;
  double fireNs = 0;
};

size_t rssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(6)));
    }
  }
  return 0;
}

// Raises the fd limit to the hard cap and returns how many
// socketpair-backed connections fit under it (with slack for the
// process's own fds), logging any clamp.
size_t fdBudgetConnections(size_t wanted) {
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &rl);
  }
  ::getrlimit(RLIMIT_NOFILE, &rl);
  size_t budget = rl.rlim_cur > 512 ? (rl.rlim_cur - 512) / 2 : 16;
  if (budget < wanted) {
    std::printf("fd budget: RLIMIT_NOFILE=%llu clamps fleet %zu -> %zu\n",
                static_cast<unsigned long long>(rl.rlim_cur), wanted,
                budget);
    return budget;
  }
  return wanted;
}

IdleCell runIdleCell(const std::string& backend, size_t wanted) {
  IdleCell cell;
  cell.backend = backend;
  setIoBackendChoice(backend == "io_uring" ? IoBackendChoice::kIoUring
                                           : IoBackendChoice::kEpoll);

  size_t fleet = fdBudgetConnections(wanted);
  auto loop = std::make_unique<EventLoopThread>("idle");
  size_t rssBefore = rssKb();

  std::vector<int> fds;
  fds.reserve(fleet * 2);
  std::atomic<uint64_t> spurious{0};
  loop->runSync([&] {
    for (size_t i = 0; i < fleet; ++i) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv) != 0) {
        std::perror("socketpair (idle)");
        std::exit(1);
      }
      fds.push_back(sv[0]);
      fds.push_back(sv[1]);
      loop->loop().addFd(sv[0], kEvRead,
                         [&spurious](uint32_t) { spurious.fetch_add(1); },
                         "bench.idle");
      // The per-conn idle timeout every real proxy arms: far enough
      // out that none fire during the measurement.
      loop->loop().runAfter(Duration{10 * 60 * 1000}, [] {}, "bench.idle_to");
    }
  });
  cell.connections = fleet;
  size_t rssAfter = rssKb();
  cell.idleConnKb = fleet == 0 ? 0.0
                               : static_cast<double>(rssAfter - rssBefore) /
                                     static_cast<double>(fleet);

  // Cross-thread wakeup latency with the fleet parked: the runSync
  // round trip is dominated by the backend's wakeup path (eventfd +
  // wait return), which must not scale with idle interest.
  HdrHistogram wakeupNs;
  for (int i = 0; i < 400; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    loop->runSync([] {});
    auto t1 = std::chrono::steady_clock::now();
    wakeupNs.record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  cell.wakeupP99Ns = wakeupNs.quantile(0.99);

  if (spurious.load() != 0) {
    std::fprintf(stderr, "error: %llu readiness events on idle conns\n",
                 static_cast<unsigned long long>(spurious.load()));
    std::exit(1);
  }
  loop.reset();
  for (int fd : fds) {
    ::close(fd);
  }
  return cell;
}

TimerCell runTimerCell(size_t standing) {
  TimerCell cell;
  cell.timers = standing;
  TimerHeap q;
  TimePoint now = Clock::now();
  // Standing population, spread like real idle timeouts (30s..5min),
  // none due during the measurement.
  for (size_t i = 0; i < standing; ++i) {
    q.arm(now + Duration{30'000 + static_cast<long>(i % 270'000)},
          Duration{0}, [] {}, "bg");
  }
  const size_t probes = 10'000;
  std::vector<TimerHeap::TimerId> ids(probes);
  auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < probes; ++i) {
    ids[i] = q.arm(now + Duration{5'000}, Duration{0}, [] {}, "probe");
  }
  auto t1 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < probes; ++i) {
    q.cancel(ids[i]);
  }
  auto t2 = std::chrono::steady_clock::now();
  // Fire path: `probes` timers due at once, drained by one advance.
  uint64_t fired = 0;
  for (size_t i = 0; i < probes; ++i) {
    q.arm(now + Duration{5}, Duration{0}, [&fired] { ++fired; }, "due");
  }
  auto t3 = std::chrono::steady_clock::now();
  q.advance(now + Duration{6},
            [](const char*, const TimerHeap::Callback& cb) { cb(); });
  auto t4 = std::chrono::steady_clock::now();
  if (fired != probes) {
    std::fprintf(stderr, "error: fired %llu of %zu due timers\n",
                 static_cast<unsigned long long>(fired), probes);
    std::exit(1);
  }
  auto ns = [](auto a, auto b) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  cell.armNs = ns(t0, t1) / static_cast<double>(probes);
  cell.cancelNs = ns(t1, t2) / static_cast<double>(probes);
  cell.fireNs = ns(t3, t4) / static_cast<double>(probes);
  return cell;
}

void writeJson(const std::vector<IdleCell>& idle,
               const std::vector<TimerCell>& timers, const char* path) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"event_engine\",\n  \"smoke\": "
      << (bench::smokeMode() ? "true" : "false") << ",\n  \"cells\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out << ",\n";
    }
    first = false;
  };
  for (const auto& c : idle) {
    sep();
    out << "    {\"family\": \"idle\", \"backend\": \"" << c.backend
        << "\", \"connections\": " << c.connections
        << ", \"idle_conn_kb\": " << c.idleConnKb
        << ", \"wakeup_p99_ns\": " << c.wakeupP99Ns << "}";
  }
  for (const auto& c : timers) {
    sep();
    out << "    {\"family\": \"timers\", \"timers\": " << c.timers
        << ", \"arm_ns\": " << c.armNs << ", \"cancel_ns\": " << c.cancelNs
        << ", \"fire_ns\": " << c.fireNs << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main() {
  bench::banner("event-engine economics",
                "idle conns cost engine bookkeeping only; timer heap "
                "arm/cancel/fire stay sub-microsecond at 1M timers");

  std::vector<std::string> backends{"epoll"};
  if (ioUringSupported()) {
    backends.push_back("io_uring");
  } else {
    std::printf("io_uring unavailable on this kernel: epoll cells only\n");
  }

  // "100k+ connections" is the full-mode target; the fd budget clamps
  // (and logs) whatever the runner actually allows.
  const size_t idleWanted = bench::scaled<size_t>(100'000, 2'000);
  const size_t timersBig = bench::scaled<size_t>(1'000'000, 32'768);

  bench::section("idle fleet: memory + wakeup latency");
  std::vector<IdleCell> idle;
  for (const auto& b : backends) {
    idle.push_back(runIdleCell(b, idleWanted));
    const IdleCell& c = idle.back();
    std::printf("%-9s  %zu conns  %6.2f KiB/conn RSS  wakeup p99 %.0f ns\n",
                c.backend.c_str(), c.connections, c.idleConnKb,
                c.wakeupP99Ns);
  }

  bench::section("timers: arm/cancel/fire ns vs standing population");
  std::vector<TimerCell> timers;
  for (size_t standing : {size_t{1'000}, timersBig}) {
    timers.push_back(runTimerCell(standing));
    const TimerCell& c = timers.back();
    std::printf("%8zu standing  arm %7.1f ns  cancel %7.1f ns  fire %7.1f ns\n",
                c.timers, c.armNs, c.cancelNs, c.fireNs);
  }

  writeJson(idle, timers, "BENCH_event_engine.json");
  std::printf("\nwrote BENCH_event_engine.json\n");
  return 0;
}
