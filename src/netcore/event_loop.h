// Single-threaded event loop with timers and cross-thread posts.
//
// Each simulated tier instance (Proxygen, app server, broker, L4LB…)
// owns one EventLoop running on its own thread; all of its sockets and
// state are confined to that thread (Core Guidelines CP: avoid data
// races by confinement).
//
// The readiness interface is pluggable (io_backend.h): level-triggered
// epoll by default, io_uring under ZDR_IO_BACKEND=io_uring (with
// auto-probe fallback to epoll). Timers run on one binary heap
// (timer_queue.h) that the loop owns by value. Dispatch order, observer
// instrumentation and all callback semantics are backend-independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "netcore/io_backend.h"
#include "netcore/timer_queue.h"

namespace zdr {

// One per-iteration snapshot of the engine's internals, published to
// the observer so the metrics side can export the loop.backend.* and
// timer.* families without netcore depending on metrics.
struct EngineSample {
  const char* backend = "epoll";  // IoBackend::name()
  IoBackendStats io;
  TimerStats timers;
};

// Loop self-profiling hook. netcore stays metrics-free: the metrics
// side implements this interface (LoopRecorder in
// metrics/loop_recorder.h) and the loop calls it blind. With no
// observer installed the loop takes zero extra clock reads.
//
// Threading contract: install from any thread (the pointer is
// published release/acquire, so a fully-constructed observer may be
// handed to a running loop); uninstall from the loop thread itself or
// once the loop has stopped, and only destroy the observer after the
// uninstall. Every callback runs on the loop thread. `tag` arguments
// always have static storage duration (string literals at the call
// sites).
class LoopObserver {
 public:
  enum class DispatchKind : uint8_t {
    kIo = 0,      // fd readiness callback
    kPosted = 1,  // cross-thread runInLoop callback
    kTimer = 2,   // runAfter/runEvery callback
    kAtEnd = 3,   // end-of-iteration batch callback
  };

  virtual ~LoopObserver() = default;

  // One loop iteration finished: time blocked in the poller vs time
  // spent dispatching callbacks.
  virtual void onIteration(uint64_t pollNs, uint64_t workNs) noexcept = 0;
  // One callback dispatch completed.
  virtual void onDispatch(DispatchKind kind, const char* tag,
                          uint64_t durNs) noexcept = 0;
  // A single dispatch exceeded the loop's stall threshold: the event
  // loop was blocked — every other fd, timer and post on this worker
  // waited `durNs` behind `tag`.
  virtual void onStall(DispatchKind kind, const char* tag,
                       uint64_t durNs) noexcept = 0;
  // Engine internals snapshot, once per iteration. Default no-op:
  // only the metrics-side recorder exports it.
  virtual void onEngineSample(const EngineSample& /*sample*/) noexcept {}
};

class EventLoop {
 public:
  using Callback = std::function<void()>;
  // `events` is the backend-neutral readiness mask (kEvRead/kEvWrite/
  // kEvError/kEvHup — numerically identical to EPOLLIN/EPOLLOUT/…).
  using IoCallback = std::function<void(uint32_t events)>;
  using TimerId = TimerHeap::TimerId;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- engine introspection ---
  [[nodiscard]] const char* backendName() const noexcept;
  // Always "heap": the one timer queue. Kept for benchmark provenance
  // lines that print it.
  [[nodiscard]] const char* timerImplName() const noexcept { return "heap"; }
  [[nodiscard]] EngineSample engineSample() const noexcept;

  // --- fd interest (loop thread only) ---
  // `tag` labels the callback for loop self-profiling (per-tag time,
  // stall blame); must be a string literal / static storage.
  void addFd(int fd, uint32_t events, IoCallback cb,
             const char* tag = "io");
  void modifyFd(int fd, uint32_t events);
  void removeFd(int fd);
  [[nodiscard]] bool watching(int fd) const { return handlers_.count(fd) > 0; }

  // --- timers (loop thread only) ---
  TimerId runAfter(Duration delay, Callback cb, const char* tag = "timer");
  TimerId runEvery(Duration period, Callback cb, const char* tag = "timer");
  void cancelTimer(TimerId id);
  // Timers armed and neither fired (one-shots) nor cancelled. Loop
  // thread only; test introspection for timer-leak regressions.
  [[nodiscard]] size_t activeTimerCount() const noexcept {
    return timers_.activeCount();
  }
  // Heap entries, including cancelled-but-not-yet-reclaimed ones. Loop
  // thread only; lets tests assert that cancellation doesn't let the
  // heap grow without bound.
  [[nodiscard]] size_t pendingTimerEntries() const noexcept {
    return timers_.pendingEntries();
  }

  // Defers `cb` to the end of the current loop iteration (after io
  // dispatch, posted callbacks and timers). Loop thread only. This is
  // the batching point for per-iteration work such as Connection's
  // gather-write flush: everything queued while handling this
  // iteration's events runs once, before the next poller wait.
  void runAtEnd(Callback cb, const char* tag = "at_end");

  // --- cross-thread ---
  // Enqueues `cb` to run on the loop thread; safe from any thread.
  void runInLoop(Callback cb, const char* tag = "posted");
  void stop();  // safe from any thread

  // --- self-profiling ---
  // Installs (or clears, with nullptr) the profiling observer. Safe
  // from any thread: the observer is published with release/acquire,
  // so a fully-constructed recorder may be installed onto a running
  // loop. Clearing while the loop runs must happen on the loop thread
  // (see LoopObserver); the in-flight dispatch then goes unreported.
  // A dispatch running longer than `stallThreshold` is reported via
  // onStall (default 25 ms).
  void setObserver(LoopObserver* obs,
                   Duration stallThreshold = Duration{25});
  [[nodiscard]] LoopObserver* observer() const noexcept {
    return observer_.load(std::memory_order_acquire);
  }

  // Runs until stop(); dispatches io, timers and posted callbacks.
  void run();
  // Single non-blocking (or bounded) iteration; for tests.
  void poll(Duration maxWait = Duration{0});

  [[nodiscard]] bool isInLoopThread() const noexcept {
    return std::this_thread::get_id() ==
           loopThreadId_.load(std::memory_order_acquire);
  }

 private:
  void iterate(int timeoutMs);
  void drainPosted();
  void fireTimers();
  void drainAtEnd();
  [[nodiscard]] int msUntilNextTimer() const;

  // Runs `fn` under the observer's clock when one is installed; plain
  // call (no clock reads) otherwise.
  template <typename F>
  void dispatch(LoopObserver::DispatchKind kind, const char* tag, F&& fn) {
    LoopObserver* obs = observer_.load(std::memory_order_acquire);
    if (obs == nullptr) {
      fn();
      return;
    }
    const TimePoint t0 = Clock::now();
    fn();
    // Re-load: `fn` may have uninstalled the observer from this very
    // thread (teardown paths destroy the proxy — and its recorders —
    // inside a dispatch). The in-flight dispatch then simply goes
    // unreported instead of calling through a dead observer.
    obs = observer_.load(std::memory_order_acquire);
    if (obs == nullptr) {
      return;
    }
    const auto durNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    obs->onDispatch(kind, tag, durNs);
    if (durNs >= stallNs_.load(std::memory_order_relaxed)) {
      obs->onStall(kind, tag, durNs);
    }
  }

  std::unique_ptr<IoBackend> backend_;
  TimerHeap timers_;

  struct Handler {
    // shared_ptr so a handler erased mid-dispatch stays alive for the
    // call.
    std::shared_ptr<IoCallback> cb;
    const char* tag = "io";
  };
  std::map<int, Handler> handlers_;

  struct Task {
    Callback cb;
    const char* tag;
  };
  std::mutex postedMutex_;
  std::vector<Task> posted_;

  // End-of-iteration tasks; loop-thread-only, no lock (see runAtEnd).
  std::vector<Task> atEnd_;

  // Reused per-iteration result buffer for IoBackend::wait.
  std::vector<IoEvent> ioEvents_;

  // Self-profiling; see setObserver for the install/uninstall
  // contract. stallNs_ is written before the observer publish and only
  // read once an observer is visible, so relaxed suffices for it.
  std::atomic<LoopObserver*> observer_{nullptr};
  std::atomic<uint64_t> stallNs_{25'000'000};  // 25 ms default budget

  std::atomic<bool> stopped_{false};
  // Identity of the thread running run()/poll(). Deliberately NOT the
  // constructing thread: before the loop runs, nobody is "in" it, so
  // cross-thread posts (runSync during startup) queue instead of
  // executing on the wrong thread.
  std::atomic<std::thread::id> loopThreadId_{};
};

// Owns a thread running an EventLoop; joins + stops on destruction.
class EventLoopThread {
 public:
  explicit EventLoopThread(std::string name = "loop");
  ~EventLoopThread();
  EventLoopThread(const EventLoopThread&) = delete;
  EventLoopThread& operator=(const EventLoopThread&) = delete;

  [[nodiscard]] EventLoop& loop() noexcept { return *loop_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Runs `fn` on the loop thread and waits for it to finish.
  void runSync(EventLoop::Callback fn);

 private:
  std::string name_;
  std::unique_ptr<EventLoop> loop_;
  std::thread thread_;
};

}  // namespace zdr
