// IoBackend readiness conformance tests, parameterized over both
// backends. Every behaviour here is part of the backend contract
// EventLoop relies on, so epoll and io_uring must pass the identical
// suite: a process that switches backends sees the same readiness
// semantics, just different syscall economics. The io_uring
// instantiation self-skips on kernels that cannot run a ring.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netcore/epoll_backend.h"
#include "netcore/io_uring_backend.h"

namespace zdr {
namespace {

struct BackendCase {
  const char* name;
  std::function<std::unique_ptr<IoBackend>()> make;
};

// gtest folds the printed parameter into every listed test name; its
// default byte dump would leak the load address of `name` and so give
// the same case a different ctest name on every build.
void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.name; }

class IoBackendTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  void SetUp() override {
    if (std::string(GetParam().name) == "io_uring" && !ioUringSupported()) {
      GTEST_SKIP() << "kernel cannot run io_uring; backend self-skips";
    }
    backend_ = GetParam().make();
  }

  // Harvests until `pred` is satisfied or ~2 s pass; keeps everything
  // reaped so multi-event batches are not lost between calls.
  void waitUntil(const std::function<bool()>& pred) {
    for (int i = 0; i < 200 && !pred(); ++i) {
      backend_->wait(10, events_);
    }
  }

  static void makePipe(int fds[2]) {
    ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  }

  std::unique_ptr<IoBackend> backend_;
  std::vector<IoEvent> events_;
};

TEST_P(IoBackendTest, ReportsReadReadiness) {
  int fds[2];
  makePipe(fds);
  backend_->addFd(fds[0], kEvRead);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  waitUntil([&] {
    for (const auto& ev : events_) {
      if (ev.fd == fds[0] && (ev.events & kEvRead)) {
        return true;
      }
    }
    return false;
  });
  ASSERT_FALSE(events_.empty());
  EXPECT_EQ(events_.back().fd, fds[0]);
  backend_->removeFd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(IoBackendTest, LevelTriggeredPartialDrainRenotifies) {
  // The core level-trigger contract: leave bytes unread and the next
  // wait must report the fd again. io_uring's oneshot POLL_ADD re-arm
  // exists exactly to preserve this.
  int fds[2];
  makePipe(fds);
  backend_->addFd(fds[0], kEvRead);
  ASSERT_EQ(::write(fds[1], "abcd", 4), 4);
  int notified = 0;
  for (int round = 0; round < 3; ++round) {
    events_.clear();
    waitUntil([&] {
      for (const auto& ev : events_) {
        if (ev.fd == fds[0] && (ev.events & kEvRead)) {
          return true;
        }
      }
      return false;
    });
    bool seen = false;
    for (const auto& ev : events_) {
      seen = seen || (ev.fd == fds[0] && (ev.events & kEvRead));
    }
    ASSERT_TRUE(seen) << "round " << round;
    ++notified;
    char c;
    ASSERT_EQ(::read(fds[0], &c, 1), 1);  // partial drain: 3, 2, 1 left
  }
  EXPECT_EQ(notified, 3);
  backend_->removeFd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(IoBackendTest, ModifyFdSwitchesInterest) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  backend_->addFd(sv[0], kEvRead);
  ASSERT_EQ(::send(sv[1], "x", 1, 0), 1);
  waitUntil([&] { return !events_.empty(); });
  ASSERT_FALSE(events_.empty());

  // Drop read interest; pending readable bytes must go quiet.
  backend_->modifyFd(sv[0], kEvWrite);
  events_.clear();
  backend_->wait(20, events_);
  bool sawWrite = false;
  for (const auto& ev : events_) {
    EXPECT_EQ(ev.fd, sv[0]);
    sawWrite = sawWrite || (ev.events & kEvWrite) != 0;
    EXPECT_EQ(ev.events & kEvRead, 0u) << "read interest was dropped";
  }
  EXPECT_TRUE(sawWrite) << "idle socket is writable";
  backend_->removeFd(sv[0]);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_P(IoBackendTest, RemovedFdGoesSilentEvenWithPendingData) {
  int fds[2];
  makePipe(fds);
  backend_->addFd(fds[0], kEvRead);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  backend_->removeFd(fds[0]);  // before any wait: arm+cancel race path
  events_.clear();
  backend_->wait(20, events_);
  for (const auto& ev : events_) {
    EXPECT_NE(ev.fd, fds[0]) << "stale event for removed fd";
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(IoBackendTest, FdReuseAfterRemoveDoesNotLeakStaleEvents) {
  // close+reopen typically recycles the same fd number: the generation
  // tag (uring) / EPOLL_CTL_DEL (epoll) must attribute events to the
  // NEW registration only.
  int fds[2];
  makePipe(fds);
  backend_->addFd(fds[0], kEvRead);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  waitUntil([&] { return !events_.empty(); });
  backend_->removeFd(fds[0]);
  int oldFd = fds[0];
  ::close(fds[0]);
  ::close(fds[1]);

  int fresh[2];
  makePipe(fresh);
  // Steer the recycled number at the old slot if the kernel didn't
  // already hand it back.
  if (fresh[0] != oldFd) {
    ASSERT_GE(::dup2(fresh[0], oldFd), 0);
    ::close(fresh[0]);
    fresh[0] = oldFd;
  }
  backend_->addFd(fresh[0], kEvRead);
  events_.clear();
  backend_->wait(20, events_);
  EXPECT_TRUE(events_.empty()) << "fresh empty pipe reported ready";
  ASSERT_EQ(::write(fresh[1], "y", 1), 1);
  waitUntil([&] { return !events_.empty(); });
  EXPECT_FALSE(events_.empty());
  backend_->removeFd(fresh[0]);
  ::close(fresh[0]);
  ::close(fresh[1]);
}

TEST_P(IoBackendTest, WakeupUnblocksConcurrentWait) {
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    backend_->wakeup();
  });
  auto t0 = std::chrono::steady_clock::now();
  backend_->wait(2'000, events_);
  auto waited = std::chrono::steady_clock::now() - t0;
  waker.join();
  EXPECT_LT(waited, std::chrono::milliseconds(1'500));
  // The wake plumbing (eventfd) is internal: no IoEvent leaks out.
  for (const auto& ev : events_) {
    ADD_FAILURE() << "unexpected event fd " << ev.fd;
  }
}

TEST_P(IoBackendTest, StatsCountTheWork) {
  int fds[2];
  makePipe(fds);
  backend_->addFd(fds[0], kEvRead);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  waitUntil([&] { return !events_.empty(); });
  IoBackendStats s = backend_->stats();
  EXPECT_GT(s.waitSyscalls, 0u);
  if (std::string(backend_->name()) == "io_uring") {
    EXPECT_GT(s.sqesSubmitted, 0u);
    EXPECT_GT(s.cqesReaped, 0u);
  } else {
    EXPECT_EQ(s.sqesSubmitted, 0u);
  }
  EXPECT_EQ(s.opSyscalls, 0u);
  backend_->removeFd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, IoBackendTest,
    ::testing::Values(
        BackendCase{"epoll",
                    []() -> std::unique_ptr<IoBackend> {
                      return std::make_unique<EpollBackend>();
                    }},
        BackendCase{"io_uring",
                    []() -> std::unique_ptr<IoBackend> {
                      if (ioUringSupported()) {
                        return std::make_unique<IoUringBackend>();
                      }
                      return std::make_unique<EpollBackend>();  // skipped
                    }}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace zdr
