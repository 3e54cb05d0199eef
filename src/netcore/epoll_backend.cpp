#include "netcore/epoll_backend.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>

#include "netcore/result.h"

namespace zdr {

// The backend-neutral masks must be bit-identical to epoll's so
// consumer masks pass straight through.
static_assert(kEvRead == EPOLLIN);
static_assert(kEvWrite == EPOLLOUT);
static_assert(kEvError == EPOLLERR);
static_assert(kEvHup == EPOLLHUP);

EpollBackend::EpollBackend() {
  epollFd_.reset(::epoll_create1(EPOLL_CLOEXEC));
  if (!epollFd_) {
    throwErrno("epoll_create1");
  }
  wakeFd_.reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wakeFd_) {
    throwErrno("eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeFd_.get();
  if (::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, wakeFd_.get(), &ev) < 0) {
    throwErrno("epoll_ctl(wakeFd)");
  }
}

EpollBackend::~EpollBackend() = default;

void EpollBackend::addFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epollFd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(ADD)");
  }
}

void EpollBackend::modifyFd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epollFd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throwErrno("epoll_ctl(MOD)");
  }
}

void EpollBackend::removeFd(int fd) {
  // ENOENT/EBADF (never added, or already closed) are harmless here.
  ::epoll_ctl(epollFd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int EpollBackend::wait(int timeoutMs, std::vector<IoEvent>& events) {
  std::array<epoll_event, 128> evs;
  ++stats_.waitSyscalls;
  int n = ::epoll_wait(epollFd_.get(), evs.data(),
                       static_cast<int>(evs.size()), timeoutMs);
  if (n < 0) {
    if (errno == EINTR) {
      return 0;
    }
    throwErrno("epoll_wait");
  }
  int appended = 0;
  for (int i = 0; i < n; ++i) {
    int fd = evs[static_cast<size_t>(i)].data.fd;
    uint32_t mask = evs[static_cast<size_t>(i)].events;
    if (fd == wakeFd_.get()) {
      uint64_t drained = 0;
      [[maybe_unused]] ssize_t r =
          ::read(wakeFd_.get(), &drained, sizeof(drained));
      continue;
    }
    events.push_back(IoEvent{fd, mask});
    ++appended;
  }
  return appended;
}

void EpollBackend::wakeup() noexcept {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeFd_.get(), &one, sizeof(one));
}

}  // namespace zdr
