#include "netcore/event_loop.h"

#include <cassert>
#include <condition_variable>
#include <cstdio>

#include "netcore/epoll_backend.h"
#include "netcore/io_stats.h"
#include "netcore/io_uring_backend.h"

namespace zdr {

namespace {

// Backend selection with graceful fallback: an io_uring request on a
// kernel that can't run the ring (ENOSYS, seccomp, pre-5.11) degrades
// to epoll with one stderr note for the whole process — the same idiom
// as the other ZDR_* kill switches.
std::unique_ptr<IoBackend> makeIoBackend() {
  if (ioBackendChoice() == IoBackendChoice::kIoUring) {
    static const bool supported = [] {
      if (ioUringSupported()) {
        return true;
      }
      std::fprintf(stderr,
                   "zdr: ZDR_IO_BACKEND=io_uring requested but the kernel "
                   "can't run it; falling back to epoll\n");
      return false;
    }();
    if (supported) {
      try {
        return std::make_unique<IoUringBackend>();
      } catch (const std::exception& e) {
        // Probe passed but this ring failed (fd/memlock limits…):
        // per-loop fallback, still noisy enough to spot.
        std::fprintf(stderr,
                     "zdr: io_uring setup failed (%s); this loop falls "
                     "back to epoll\n",
                     e.what());
      }
    }
  }
  return std::make_unique<EpollBackend>();
}

}  // namespace

// loopThreadId_ stays unset until run()/poll(): see the header note.
EventLoop::EventLoop() : backend_(makeIoBackend()) {}

EventLoop::~EventLoop() = default;

const char* EventLoop::backendName() const noexcept {
  return backend_->name();
}

EngineSample EventLoop::engineSample() const noexcept {
  EngineSample s;
  s.backend = backend_->name();
  s.io = backend_->stats();
  s.timers = timers_.stats();
  return s;
}

void EventLoop::addFd(int fd, uint32_t events, IoCallback cb,
                      const char* tag) {
  backend_->addFd(fd, events);
  handlers_[fd] = Handler{std::make_shared<IoCallback>(std::move(cb)), tag};
}

void EventLoop::modifyFd(int fd, uint32_t events) {
  backend_->modifyFd(fd, events);
}

void EventLoop::removeFd(int fd) {
  if (handlers_.erase(fd) > 0) {
    backend_->removeFd(fd);
  }
}

EventLoop::TimerId EventLoop::runAfter(Duration delay, Callback cb,
                                       const char* tag) {
  return timers_.arm(Clock::now() + delay, Duration{0}, std::move(cb), tag);
}

EventLoop::TimerId EventLoop::runEvery(Duration period, Callback cb,
                                       const char* tag) {
  return timers_.arm(Clock::now() + period, period, std::move(cb), tag);
}

void EventLoop::cancelTimer(TimerId id) { timers_.cancel(id); }

void EventLoop::runAtEnd(Callback cb, const char* tag) {
  assert(isInLoopThread() || loopThreadId_.load() == std::thread::id{});
  atEnd_.push_back(Task{std::move(cb), tag});
}

void EventLoop::runInLoop(Callback cb, const char* tag) {
  {
    std::lock_guard<std::mutex> lock(postedMutex_);
    posted_.push_back(Task{std::move(cb), tag});
  }
  backend_->wakeup();
}

void EventLoop::setObserver(LoopObserver* obs, Duration stallThreshold) {
  stallNs_.store(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stallThreshold)
              .count()),
      std::memory_order_relaxed);
  observer_.store(obs, std::memory_order_release);
}

void EventLoop::stop() {
  stopped_.store(true, std::memory_order_release);
  backend_->wakeup();
}

int EventLoop::msUntilNextTimer() const {
  return timers_.msUntilNext(Clock::now());
}

void EventLoop::run() {
  loopThreadId_ = std::this_thread::get_id();
  // Note: stopped_ is deliberately NOT reset here — a stop() that
  // raced ahead of thread startup must still win, or the owning
  // thread's join() would hang forever.
  while (!stopped_.load(std::memory_order_acquire)) {
    iterate(msUntilNextTimer());
  }
  drainPosted();  // honour posts raced with stop()
  drainAtEnd();
}

void EventLoop::poll(Duration maxWait) {
  loopThreadId_ = std::this_thread::get_id();
  iterate(static_cast<int>(maxWait.count()));
}

void EventLoop::iterate(int timeoutMs) {
  LoopObserver* obs = observer_.load(std::memory_order_acquire);
  TimePoint t0;
  if (obs != nullptr) {
    t0 = Clock::now();
  }
  ioEvents_.clear();
  backend_->wait(timeoutMs, ioEvents_);
  TimePoint t1;
  if (obs != nullptr) {
    t1 = Clock::now();
  }
  for (const IoEvent& ev : ioEvents_) {
    auto it = handlers_.find(ev.fd);
    if (it == handlers_.end()) {
      continue;  // removed by an earlier callback this iteration
    }
    auto cb = it->second.cb;  // keep alive across possible removeFd()
    uint32_t mask = ev.events;
    dispatch(LoopObserver::DispatchKind::kIo, it->second.tag,
             [&] { (*cb)(mask); });
  }
  drainPosted();
  fireTimers();
  drainAtEnd();
  // Re-load: a callback this iteration may have uninstalled the
  // observer (same teardown-inside-a-dispatch case as dispatch()).
  obs = obs != nullptr ? observer_.load(std::memory_order_acquire) : nullptr;
  if (obs != nullptr) {
    const TimePoint t2 = Clock::now();
    auto ns = [](TimePoint a, TimePoint b) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
              .count());
    };
    obs->onIteration(ns(t0, t1), ns(t1, t2));
    obs->onEngineSample(engineSample());
  }
}

void EventLoop::drainAtEnd() {
  // A task may enqueue follow-up work (a flush that re-arms after a
  // partial write goes through the poller instead, but a callback
  // chain may legitimately defer once more); bound the passes so a
  // buggy self-requeueing task cannot wedge the loop.
  for (int pass = 0; pass < 8 && !atEnd_.empty(); ++pass) {
    std::vector<Task> batch;
    batch.swap(atEnd_);
    for (auto& t : batch) {
      dispatch(LoopObserver::DispatchKind::kAtEnd, t.tag, t.cb);
    }
  }
}

void EventLoop::drainPosted() {
  std::vector<Task> batch;
  {
    std::lock_guard<std::mutex> lock(postedMutex_);
    batch.swap(posted_);
  }
  for (auto& t : batch) {
    dispatch(LoopObserver::DispatchKind::kPosted, t.tag, t.cb);
  }
}

void EventLoop::fireTimers() {
  timers_.advance(Clock::now(), [this](const char* tag, const Callback& cb) {
    dispatch(LoopObserver::DispatchKind::kTimer, tag, cb);
  });
}

// ------------------------------------------------------------ loop thread

EventLoopThread::EventLoopThread(std::string name)
    : name_(std::move(name)), loop_(std::make_unique<EventLoop>()) {
  thread_ = std::thread([this] { loop_->run(); });
}

EventLoopThread::~EventLoopThread() {
  loop_->stop();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void EventLoopThread::runSync(EventLoop::Callback fn) {
  if (loop_->isInLoopThread()) {
    fn();
    return;
  }
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  loop_->runInLoop([&] {
    fn();
    // Notify while holding the mutex: if the waiter woke spuriously and
    // saw `done`, it could otherwise destroy `cv` (stack unwind) while
    // notify_one() is still touching it.
    std::lock_guard<std::mutex> lock(m);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return done; });
}

}  // namespace zdr
