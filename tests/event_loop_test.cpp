// EventLoop: timers, cross-thread posts, fd readiness dispatch, and
// the self-profiling observer (per-dispatch timing + stall blame).
#include <sys/epoll.h>

#include <atomic>
#include <functional>
#include <gtest/gtest.h>

#include "metrics/loop_recorder.h"
#include "metrics/metrics.h"
#include "netcore/connection.h"
#include "netcore/event_loop.h"
#include "netcore/socket.h"

namespace zdr {
namespace {

TEST(EventLoopTest, RunAfterFiresOnce) {
  EventLoopThread t;
  std::atomic<int> fired{0};
  t.runSync([&] {
    t.loop().runAfter(Duration{10}, [&] { fired.fetch_add(1); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoopTest, RunEveryRepeats) {
  EventLoopThread t;
  std::atomic<int> fired{0};
  EventLoop::TimerId id = 0;
  t.runSync([&] {
    id = t.loop().runEvery(Duration{10}, [&] { fired.fetch_add(1); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  t.runSync([&] { t.loop().cancelTimer(id); });
  int atCancel = fired.load();
  EXPECT_GE(atCancel, 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(fired.load(), atCancel);  // no firings after cancel
}

TEST(EventLoopTest, CancelBeforeFire) {
  EventLoopThread t;
  std::atomic<int> fired{0};
  t.runSync([&] {
    auto id = t.loop().runAfter(Duration{30}, [&] { fired.fetch_add(1); });
    t.loop().cancelTimer(id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 0);
}

TEST(EventLoopTest, RunInLoopFromOtherThread) {
  EventLoopThread t;
  std::atomic<bool> ran{false};
  std::atomic<bool> inLoopThread{false};
  t.loop().runInLoop([&] {
    inLoopThread.store(t.loop().isInLoopThread());
    ran.store(true);
  });
  for (int i = 0; i < 200 && !ran.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(inLoopThread.load());
}

TEST(EventLoopTest, TimerOrderingRespectsDeadlines) {
  EventLoopThread t;
  std::mutex m;
  std::vector<int> order;
  t.runSync([&] {
    t.loop().runAfter(Duration{40}, [&] {
      std::lock_guard<std::mutex> l(m);
      order.push_back(2);
    });
    t.loop().runAfter(Duration{10}, [&] {
      std::lock_guard<std::mutex> l(m);
      order.push_back(1);
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  std::lock_guard<std::mutex> l(m);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(EventLoopTest, FdReadDispatch) {
  EventLoopThread t;
  auto [a, b] = unixSocketPair();
  std::atomic<int> events{0};
  int bfd = b.fd();
  b.setNonBlocking(true);
  t.runSync([&] {
    t.loop().addFd(bfd, EPOLLIN, [&](uint32_t) {
      std::array<std::byte, 16> buf;
      std::error_code ec;
      b.read(buf, ec);
      events.fetch_add(1);
    });
  });
  std::error_code ec;
  std::string msg = "x";
  a.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  for (int i = 0; i < 200 && events.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(events.load(), 1);
  t.runSync([&] { t.loop().removeFd(bfd); });
}

TEST(ConnectionTest, EchoRoundTrip) {
  EventLoopThread t;
  TcpListener listener(SocketAddr::loopback(0));
  SocketAddr addr = listener.localAddr();

  std::atomic<bool> gotEcho{false};
  std::string received;
  std::mutex m;

  std::unique_ptr<Acceptor> acceptor;
  std::vector<std::shared_ptr<Connection>> serverConns;  // loop-confined
  t.runSync([&] {
    // Server side: echo everything back.
    acceptor = std::make_unique<Acceptor>(
        t.loop(), std::move(listener), [&t, &serverConns](TcpSocket sock) {
          auto conn = Connection::make(t.loop(), std::move(sock));
          conn->setDataCallback([conn](Buffer& in) {
            conn->send(in.readable());
            in.clear();
          });
          conn->setCloseCallback([conn](std::error_code) {});
          conn->start();
          serverConns.push_back(conn);
        });
  });

  std::shared_ptr<Connection> client;
  t.runSync([&] {
    Connector::connect(t.loop(), addr, [&](TcpSocket sock,
                                           std::error_code ec) {
      ASSERT_FALSE(ec);
      client = Connection::make(t.loop(), std::move(sock));
      client->setDataCallback([&](Buffer& in) {
        std::lock_guard<std::mutex> l(m);
        received += std::string(in.view());
        in.clear();
        gotEcho.store(true);
      });
      client->start();
      client->send(std::string_view("ping"));
    });
  });

  for (int i = 0; i < 500 && !gotEcho.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(gotEcho.load());
  std::lock_guard<std::mutex> l(m);
  EXPECT_EQ(received, "ping");
  t.runSync([&] {
    if (client) {
      client->close({});
    }
    // Close server conns explicitly: the loop may be torn down before
    // they would observe the client's EOF, leaking their self-captures.
    for (auto& c : serverConns) {
      c->close({});
    }
    serverConns.clear();
    acceptor.reset();  // loop-confined: must die on the loop thread
  });
}

TEST(ConnectionTest, ConnectorFailsFastOnRefusedPort) {
  EventLoopThread t;
  // Bind then close a listener so the port is (very likely) dead.
  uint16_t port;
  {
    TcpListener tmp(SocketAddr::loopback(0));
    port = tmp.localAddr().port();
  }
  std::atomic<bool> done{false};
  std::error_code result;
  t.runSync([&] {
    Connector::connect(t.loop(), SocketAddr::loopback(port),
                       [&](TcpSocket sock, std::error_code ec) {
                         result = ec;
                         done.store(true);
                         (void)sock;
                       });
  });
  for (int i = 0; i < 500 && !done.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(done.load());
  EXPECT_TRUE(result);  // refused or timed out — must be an error
}

TEST(EventLoopTest, CancelAlreadyFiredPeriodicTimerStopsRefiring) {
  // A periodic timer's next instance is queued before its callback
  // runs; cancelling after it has fired must still kill that queued
  // instance.
  EventLoopThread t;
  std::atomic<int> fired{0};
  EventLoop::TimerId id = 0;
  t.runSync([&] {
    id = t.loop().runEvery(Duration{10}, [&] { fired.fetch_add(1); });
  });
  for (int i = 0; i < 500 && fired.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fired.load(), 2);  // definitely fired already
  t.runSync([&] { t.loop().cancelTimer(id); });
  int atCancel = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), atCancel);
}

TEST(EventLoopTest, CancelPeriodicTimerFromInsideItsOwnCallback) {
  EventLoopThread t;
  std::atomic<int> fired{0};
  auto id = std::make_shared<EventLoop::TimerId>(0);
  t.runSync([&] {
    *id = t.loop().runEvery(Duration{5}, [&, id] {
      fired.fetch_add(1);
      t.loop().cancelTimer(*id);  // self-cancel on first firing
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(fired.load(), 1);
}

TEST(EventLoopTest, RemoveFdFromInsideItsOwnIoCallback) {
  // The handler erases itself mid-dispatch: the shared_ptr copy in
  // iterate() must keep the callable alive through the call.
  EventLoopThread t;
  auto [a, b] = unixSocketPair();
  std::atomic<int> invoked{0};
  int fd = a.fd();
  t.runSync([&] {
    t.loop().addFd(fd, EPOLLIN, [&t, &invoked, fd](uint32_t) {
      invoked.fetch_add(1);
      t.loop().removeFd(fd);  // erase own handler while it executes
    });
  });
  std::error_code ec;
  std::string msg = "x";
  b.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  ASSERT_FALSE(ec);
  for (int i = 0; i < 500 && invoked.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(invoked.load(), 1);
  bool watching = true;
  t.runSync([&] { watching = t.loop().watching(fd); });
  EXPECT_FALSE(watching);
  // More data must not re-trigger the removed handler.
  b.write(std::as_bytes(std::span(msg.data(), msg.size())), ec);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(invoked.load(), 1);
}

TEST(EventLoopTest, TimerBookkeepingDoesNotGrowUnderChurn) {
  // Regression: cancelled far-future timers used to sit in both the
  // heap and the alive map until their deadlines passed, and
  // activeTimerCount() scanned the map linearly. Arm + cancel 10k
  // retry-style timers: neither container may grow monotonically.
  EventLoop loop;
  loop.poll(Duration{0});  // adopt this thread as the loop thread
  for (int i = 0; i < 10000; ++i) {
    auto id = loop.runAfter(Duration{3600 * 1000}, [] {});
    loop.cancelTimer(id);
    EXPECT_LE(loop.pendingTimerEntries(), 128u);
  }
  EXPECT_EQ(loop.activeTimerCount(), 0u);
  EXPECT_LE(loop.pendingTimerEntries(), 128u);

  // 10k one-shots that actually fire must empty both containers. A
  // fresh loop: the churn above legitimately leaves a few (<64) stale
  // cancelled entries whose far-future deadlines never pop.
  EventLoop loop2;
  loop2.poll(Duration{0});
  int fired = 0;
  for (int i = 0; i < 10000; ++i) {
    loop2.runAfter(Duration{0}, [&] { ++fired; });
  }
  EXPECT_EQ(loop2.activeTimerCount(), 10000u);
  loop2.poll(Duration{5});
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(loop2.activeTimerCount(), 0u);
  EXPECT_EQ(loop2.pendingTimerEntries(), 0u);

  // Mixed churn: periodic survivors stay live while one-shot churn
  // around them is armed and cancelled.
  std::vector<EventLoop::TimerId> keep;
  for (int i = 0; i < 10; ++i) {
    keep.push_back(loop.runEvery(Duration{3600 * 1000}, [] {}));
  }
  for (int i = 0; i < 10000; ++i) {
    loop.cancelTimer(loop.runAfter(Duration{3600 * 1000}, [] {}));
  }
  EXPECT_EQ(loop.activeTimerCount(), keep.size());
  EXPECT_LE(loop.pendingTimerEntries(), 128u);
  for (auto id : keep) {
    loop.cancelTimer(id);
  }
  EXPECT_EQ(loop.activeTimerCount(), 0u);
}

TEST(EventLoopTest, SequentialShortTimersWaitOncePerDeadline) {
  // Regression: the heap truncated the remaining wait to whole
  // milliseconds, so the last sub-millisecond of every deadline became
  // a stream of 0 ms polls — hundreds of thousands of busy waits for a
  // few hundred timers. Rounded up, each timer costs about one wait.
  constexpr int kTimers = 100;
  EventLoop loop;
  int fired = 0;
  int early = 0;
  std::function<void()> armNext = [&] {
    const TimePoint deadline = Clock::now() + Duration{3};
    loop.runAfter(Duration{3}, [&, deadline] {
      early += Clock::now() < deadline ? 1 : 0;
      if (++fired < kTimers) {
        armNext();
      } else {
        loop.stop();
      }
    });
  };
  armNext();
  const uint64_t waitsBefore = loop.engineSample().io.waitSyscalls;
  loop.run();
  const uint64_t waits = loop.engineSample().io.waitSyscalls - waitsBefore;
  EXPECT_EQ(fired, kTimers);
  EXPECT_EQ(early, 0) << "a timer fired before its deadline";
  EXPECT_LE(waits, 2u * kTimers + 8) << "the loop spun on 0 ms waits";
}

TEST(EventLoopTest, RunAfterZeroChainIsNotQuantized) {
  // A due-now timer runs on the next iteration, not on the next 1 ms
  // tick: the closed-loop load generators re-launch every request this
  // way, so tick rounding caps each connection near 1 request/ms.
  // 1000 hops take about 1 ms here and at least 1000 ms with ticks.
  constexpr int kHops = 1000;
  EventLoop loop;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < kHops) {
      loop.runAfter(Duration{0}, hop);
    } else {
      loop.stop();
    }
  };
  const TimePoint t0 = Clock::now();
  loop.runAfter(Duration{0}, hop);
  loop.run();
  EXPECT_EQ(hops, kHops);
  EXPECT_LT(Clock::now() - t0, Duration{500});
}

// ------------------------------------------------------ loop profiling

// Counting observer for the raw EventLoop hook contract.
struct CountingObserver : LoopObserver {
  std::atomic<uint64_t> iterations{0};
  std::atomic<uint64_t> dispatches{0};
  std::atomic<uint64_t> stalls{0};
  std::string lastStallTag;
  uint64_t lastStallNs = 0;
  LoopObserver::DispatchKind lastStallKind = LoopObserver::DispatchKind::kIo;

  void onIteration(uint64_t, uint64_t) noexcept override { ++iterations; }
  void onDispatch(DispatchKind, const char*, uint64_t) noexcept override {
    ++dispatches;
  }
  void onStall(DispatchKind kind, const char* tag,
               uint64_t durNs) noexcept override {
    ++stalls;
    lastStallKind = kind;
    lastStallTag = tag;
    lastStallNs = durNs;
  }
};

TEST(LoopProfilingTest, ObserverSeesIterationsAndDispatches) {
  EventLoop loop;
  CountingObserver obs;
  loop.setObserver(&obs);
  int fired = 0;
  loop.runAfter(Duration{0}, [&] { ++fired; }, "unit.timer");
  loop.poll(Duration{5});
  EXPECT_EQ(fired, 1);
  EXPECT_GE(obs.iterations.load(), 1u);
  EXPECT_GE(obs.dispatches.load(), 1u);
  EXPECT_EQ(obs.stalls.load(), 0u);  // a counter bump never stalls

  // Cleared observer ⇒ no further reporting (and no clock reads).
  loop.setObserver(nullptr);
  uint64_t frozen = obs.dispatches.load();
  loop.runAfter(Duration{0}, [&] { ++fired; });
  loop.poll(Duration{5});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(obs.dispatches.load(), frozen);
}

TEST(LoopProfilingTest, StallReportBlamesTheOffendingTag) {
  EventLoop loop;
  CountingObserver obs;
  loop.setObserver(&obs, Duration{25});
  loop.runAfter(
      Duration{0},
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); },
      "slow.handler");
  loop.runAfter(Duration{0}, [] {}, "fast.handler");
  loop.poll(Duration{5});
  loop.setObserver(nullptr);
  EXPECT_EQ(obs.stalls.load(), 1u);
  EXPECT_EQ(obs.lastStallTag, "slow.handler");
  EXPECT_EQ(obs.lastStallKind, LoopObserver::DispatchKind::kTimer);
  EXPECT_GE(obs.lastStallNs, 50'000'000u);
}

TEST(LoopProfilingTest, ObserverUninstalledInsideDispatchIsSafe) {
  // Teardown paths destroy the proxy — and its recorder — from inside
  // a dispatched callback; the loop must not call through the dead
  // observer for the in-flight dispatch.
  EventLoop loop;
  CountingObserver obs;
  loop.setObserver(&obs);
  loop.runAfter(Duration{0}, [&] { loop.setObserver(nullptr); },
                "teardown");
  loop.poll(Duration{5});
  EXPECT_EQ(loop.observer(), nullptr);
  EXPECT_EQ(obs.dispatches.load(), 0u);  // in-flight dispatch unreported
}

TEST(LoopProfilingTest, InstallFromAnotherThreadOntoRunningLoop) {
  EventLoopThread t;
  CountingObserver obs;
  t.loop().setObserver(&obs);  // cross-thread install, loop running
  std::atomic<int> fired{0};
  t.loop().runInLoop([&] { fired.fetch_add(1); }, "posted.probe");
  for (int i = 0; i < 2000 && fired.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_GE(obs.dispatches.load(), 1u);
  t.runSync([&] { t.loop().setObserver(nullptr); });  // loop-thread clear
}

TEST(LoopProfilingTest, BlockingCallbackProducesExactlyOneStallEvent) {
  // The acceptance drill for the flight recorder: one synthetic 50 ms
  // blocking callback must yield exactly one kLoopStall event in the
  // worker's ring, blaming the callback's tag — recorded through the
  // real LoopRecorder, not a test double.
  MetricsRegistry reg;
  fr::LoopRecorder rec(reg, "w0", 256);
  EventLoop loop;
  loop.setObserver(&rec, Duration{25});
  loop.runAfter(
      Duration{0},
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(50)); },
      "blocking.callback");
  loop.runAfter(Duration{0}, [] {}, "innocent.callback");
  loop.poll(Duration{5});
  loop.setObserver(nullptr);

  std::vector<fr::Event> events;
  reg.eventRing("w0").snapshot(events);
  size_t stallEvents = 0;
  for (const auto& e : events) {
    if (e.kind != static_cast<uint32_t>(fr::EventKind::kLoopStall)) {
      continue;
    }
    ++stallEvents;
    EXPECT_EQ(trace::instanceName(static_cast<uint32_t>(e.detail)),
              "blocking.callback");
    EXPECT_GE(e.durNs, 50'000'000u);
    EXPECT_EQ(trace::instanceName(e.instance), "w0");
  }
  EXPECT_EQ(stallEvents, 1u);
  EXPECT_EQ(reg.counter("w0.loop.stalls").value(), 1u);
  // Per-tag cumulative dispatch time pins the blame in counters too.
  EXPECT_GE(reg.counter("w0.loop.tag_us.blocking.callback").value(),
            50'000u);
  // Wall/poll/dispatch histograms saw the iteration.
  EXPECT_GE(reg.hdr("w0.loop.iter_us").count(), 1u);
  EXPECT_GE(reg.hdr("w0.loop.dispatch_us").count(), 1u);
  // Engine counters: both timers armed and fired on this loop.
  EXPECT_EQ(reg.counter("w0.timer.armed").value(), 2u);
  EXPECT_EQ(reg.counter("w0.timer.fired").value(), 2u);
}

}  // namespace
}  // namespace zdr
