#include "netcore/io_uring_backend.h"

#if __has_include(<linux/io_uring.h>)
#define ZDR_HAVE_IO_URING 1
#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define ZDR_HAVE_IO_URING 0
#endif

#include <cerrno>
#include <cstring>

#include "netcore/result.h"

namespace zdr {

#if ZDR_HAVE_IO_URING

static_assert(kEvRead == POLLIN);
static_assert(kEvWrite == POLLOUT);
static_assert(kEvError == POLLERR);
static_assert(kEvHup == POLLHUP);

namespace {

// user_data layout: [63:56] kind, rest kind-specific.
//  poll:   [55:32] generation, [31:0] fd
//  cancel: the ASYNC_CANCEL SQE itself (its CQE is dropped)
constexpr uint64_t kKindPoll = 1;
constexpr uint64_t kKindCancel = 2;

uint64_t pollData(uint32_t gen, int fd) {
  return (kKindPoll << 56) | (static_cast<uint64_t>(gen & 0xffffffu) << 32) |
         static_cast<uint32_t>(fd);
}

int ringSetup(unsigned entries, io_uring_params* p) noexcept {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

template <typename T>
T* ringPtr(void* base, uint32_t off) {
  return reinterpret_cast<T*>(static_cast<char*>(base) + off);
}

}  // namespace

bool ioUringSupported() noexcept {
  static const bool supported = [] {
    io_uring_params p{};
    int fd = ringSetup(4, &p);
    if (fd < 0) {
      return false;
    }
    ::close(fd);
    // Timed waits ride IORING_ENTER_EXT_ARG; without it (pre-5.11)
    // the backend would have to burn a timeout SQE per wait. Treat
    // such kernels as unsupported and let EventLoop fall back.
    return (p.features & IORING_FEAT_EXT_ARG) != 0;
  }();
  return supported;
}

IoUringBackend::IoUringBackend() {
  io_uring_params p{};
  p.flags = IORING_SETUP_CQSIZE;
  p.cq_entries = 4096;
  int fd = ringSetup(1024, &p);
  if (fd < 0) {
    throwErrno("io_uring_setup");
  }
  ringFd_.reset(fd);

  sqRingSize_ = p.sq_off.array + p.sq_entries * sizeof(unsigned);
  cqRingSize_ = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  if (p.features & IORING_FEAT_SINGLE_MMAP) {
    sqRingSize_ = cqRingSize_ = std::max(sqRingSize_, cqRingSize_);
  }
  sqRing_ = ::mmap(nullptr, sqRingSize_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (sqRing_ == MAP_FAILED) {
    throwErrno("mmap(sq ring)");
  }
  if (p.features & IORING_FEAT_SINGLE_MMAP) {
    cqRing_ = sqRing_;
  } else {
    cqRing_ = ::mmap(nullptr, cqRingSize_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
    if (cqRing_ == MAP_FAILED) {
      throwErrno("mmap(cq ring)");
    }
  }
  sqesSize_ = p.sq_entries * sizeof(io_uring_sqe);
  sqes_ = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqesSize_, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES));
  if (sqes_ == MAP_FAILED) {
    throwErrno("mmap(sqes)");
  }

  sqHead_ = ringPtr<unsigned>(sqRing_, p.sq_off.head);
  sqTail_ = ringPtr<unsigned>(sqRing_, p.sq_off.tail);
  sqMask_ = *ringPtr<unsigned>(sqRing_, p.sq_off.ring_mask);
  sqEntries_ = p.sq_entries;
  sqArray_ = ringPtr<unsigned>(sqRing_, p.sq_off.array);
  cqHead_ = ringPtr<unsigned>(cqRing_, p.cq_off.head);
  cqTail_ = ringPtr<unsigned>(cqRing_, p.cq_off.tail);
  cqMask_ = *ringPtr<unsigned>(cqRing_, p.cq_off.ring_mask);
  cqes_ = ringPtr<io_uring_cqe>(cqRing_, p.cq_off.cqes);

  wakeFd_.reset(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wakeFd_) {
    throwErrno("eventfd");
  }
  FdState& wake = fds_[wakeFd_.get()];
  wake.events = kEvRead;
  wake.internal = true;
  pushPoll(wakeFd_.get(), wake);
}

IoUringBackend::~IoUringBackend() {
  if (sqes_ != nullptr) {
    ::munmap(sqes_, sqesSize_);
  }
  if (cqRing_ != nullptr && cqRing_ != sqRing_) {
    ::munmap(cqRing_, cqRingSize_);
  }
  if (sqRing_ != nullptr) {
    ::munmap(sqRing_, sqRingSize_);
  }
}

io_uring_sqe* IoUringBackend::getSqe() {
  // Guard on actual ring space (tail − head), not just our unsubmitted
  // count: the two agree in this non-SQPOLL setup, but head is the
  // kernel's word on it and stays correct even if a future change lets
  // entries linger past an enter().
  unsigned tail = __atomic_load_n(sqTail_, __ATOMIC_RELAXED);
  if (tail - __atomic_load_n(sqHead_, __ATOMIC_ACQUIRE) >= sqEntries_) {
    flushSubmissions();  // SQ full: push the batch without waiting
    tail = __atomic_load_n(sqTail_, __ATOMIC_RELAXED);
  }
  unsigned idx = tail & sqMask_;
  io_uring_sqe* sqe = &sqes_[idx];
  std::memset(sqe, 0, sizeof(*sqe));
  sqArray_[idx] = idx;
  __atomic_store_n(sqTail_, tail + 1, __ATOMIC_RELEASE);
  ++toSubmit_;
  ++stats_.sqesSubmitted;
  return sqe;
}

void IoUringBackend::pushPoll(int fd, FdState& st) {
  st.gen = nextGen_++ & 0xffffffu;
  if (st.gen == 0) {  // gen 0 means "no poll armed"
    st.gen = nextGen_++ & 0xffffffu;
  }
  io_uring_sqe* sqe = getSqe();
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  // POLLERR/POLLHUP are always reported by poll; OR-ing them in makes
  // the requested mask explicit (and covers an interest of 0, which
  // must still surface errors — same as level-triggered epoll).
  sqe->poll32_events = st.events | kEvError | kEvHup;
  sqe->user_data = pollData(st.gen, fd);
  st.armed = true;
  st.rearmQueued = false;
}

void IoUringBackend::pushCancel(uint64_t targetUserData) {
  io_uring_sqe* sqe = getSqe();
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = targetUserData;
  sqe->user_data = kKindCancel << 56;
}

void IoUringBackend::addFd(int fd, uint32_t events) {
  FdState& st = fds_[fd];
  st.events = events;
  st.internal = false;
  pushPoll(fd, st);
}

void IoUringBackend::modifyFd(int fd, uint32_t events) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    errno = ENOENT;
    throwErrno("IoUringBackend::modifyFd");
  }
  FdState& st = it->second;
  st.events = events;
  if (st.armed) {
    pushCancel(pollData(st.gen, fd));
  }
  pushPoll(fd, st);  // bumps gen: a stale CQE for the old mask is dropped
}

void IoUringBackend::removeFd(int fd) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    return;
  }
  if (it->second.armed) {
    pushCancel(pollData(it->second.gen, fd));
  }
  fds_.erase(it);
}

int IoUringBackend::enter(unsigned toSubmit, unsigned minComplete,
                          unsigned flags, const void* arg,
                          size_t argsz) noexcept {
  ++stats_.waitSyscalls;
  return static_cast<int>(::syscall(__NR_io_uring_enter, ringFd_.get(),
                                    toSubmit, minComplete, flags, arg,
                                    argsz));
}

void IoUringBackend::flushSubmissions() {
  while (toSubmit_ > 0) {
    int ret = enter(toSubmit_, 0, 0, nullptr, 0);
    if (ret < 0) {
      if (errno == EINTR) {
        continue;
      }
      throwErrno("io_uring_enter(submit)");
    }
    toSubmit_ -= static_cast<unsigned>(ret);
  }
}

int IoUringBackend::reap(std::vector<IoEvent>& events) {
  int appended = 0;
  unsigned head = __atomic_load_n(cqHead_, __ATOMIC_RELAXED);
  unsigned tail = __atomic_load_n(cqTail_, __ATOMIC_ACQUIRE);
  while (head != tail) {
    const io_uring_cqe* cqe = &cqes_[head & cqMask_];
    ++head;
    ++stats_.cqesReaped;
    if ((cqe->user_data >> 56) != kKindPoll) {
      continue;  // kKindCancel results are dropped
    }
    int fd = static_cast<int>(cqe->user_data & 0xffffffffu);
    auto gen = static_cast<uint32_t>((cqe->user_data >> 32) & 0xffffffu);
    auto it = fds_.find(fd);
    if (it == fds_.end() || it->second.gen != gen) {
      continue;  // stale: fd removed or re-registered since arming
    }
    FdState& st = it->second;
    st.armed = false;
    if (cqe->res == -ECANCELED) {
      continue;  // our own cancel (modifyFd) won the race
    }
    if (!st.rearmQueued) {
      st.rearmQueued = true;
      rearm_.push_back(fd);
    }
    if (st.internal) {
      uint64_t drained = 0;
      [[maybe_unused]] ssize_t r = ::read(fd, &drained, sizeof(drained));
      continue;
    }
    uint32_t mask = cqe->res < 0 ? (kEvError | kEvHup)
                                 : static_cast<uint32_t>(cqe->res);
    events.push_back(IoEvent{fd, mask});
    ++appended;
  }
  __atomic_store_n(cqHead_, head, __ATOMIC_RELEASE);
  return appended;
}

int IoUringBackend::wait(int timeoutMs, std::vector<IoEvent>& events) {
  // Re-arm polls for fds that completed last iteration and are still
  // registered. Arming runs vfs_poll, so an fd whose data was only
  // partially drained completes again immediately — the level-
  // triggered guarantee.
  for (int fd : rearm_) {
    auto it = fds_.find(fd);
    if (it != fds_.end() && it->second.rearmQueued && !it->second.armed) {
      pushPoll(fd, it->second);
      ++stats_.pollRearms;
    }
  }
  rearm_.clear();

  unsigned cqReady = __atomic_load_n(cqTail_, __ATOMIC_ACQUIRE) -
                     __atomic_load_n(cqHead_, __ATOMIC_RELAXED);
  if (cqReady == 0 && timeoutMs > 0) {
    // One syscall: submit the whole batch AND wait, with a timeout.
    struct __kernel_timespec ts {};
    ts.tv_sec = timeoutMs / 1000;
    ts.tv_nsec = static_cast<long long>(timeoutMs % 1000) * 1'000'000;
    struct io_uring_getevents_arg arg {};
    arg.ts = reinterpret_cast<uint64_t>(&ts);
    int ret = enter(toSubmit_, 1,
                    IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
                    sizeof(arg));
    if (ret < 0) {
      if (errno != EINTR && errno != ETIME && errno != EBUSY) {
        throwErrno("io_uring_enter(wait)");
      }
      // EINTR/EBUSY: nothing was submitted; retry next iteration.
      // ETIME: the timeout fired (submissions were consumed).
      if (errno == ETIME) {
        toSubmit_ = 0;
      }
    } else {
      toSubmit_ -= static_cast<unsigned>(ret);
    }
  } else if (toSubmit_ > 0) {
    flushSubmissions();
  }

  return reap(events);
}

void IoUringBackend::wakeup() noexcept {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeFd_.get(), &one, sizeof(one));
}

#else  // !ZDR_HAVE_IO_URING

bool ioUringSupported() noexcept { return false; }

IoUringBackend::IoUringBackend() {
  errno = ENOSYS;
  throwErrno("io_uring (not built on this platform)");
}
IoUringBackend::~IoUringBackend() = default;
io_uring_sqe* IoUringBackend::getSqe() { return nullptr; }
void IoUringBackend::pushPoll(int, FdState&) {}
void IoUringBackend::pushCancel(uint64_t) {}
void IoUringBackend::flushSubmissions() {}
int IoUringBackend::enter(unsigned, unsigned, unsigned, const void*,
                          size_t) noexcept {
  return -1;
}
int IoUringBackend::reap(std::vector<IoEvent>&) { return 0; }
void IoUringBackend::addFd(int, uint32_t) {}
void IoUringBackend::modifyFd(int, uint32_t) {}
void IoUringBackend::removeFd(int) {}
int IoUringBackend::wait(int, std::vector<IoEvent>&) { return 0; }
void IoUringBackend::wakeup() noexcept {}

#endif  // ZDR_HAVE_IO_URING

}  // namespace zdr
