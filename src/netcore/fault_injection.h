// Deterministic fault injection for netcore sockets and connections.
//
// The paper's mechanisms (Socket Takeover, DCR, PPR) only earn their
// zero-downtime claim if they hold up when the network misbehaves:
// control messages lost, writes truncated mid-POST, peers resetting
// mid-handoff. This subsystem lets chaos tests script exactly those
// conditions, deterministically (seeded), against the real socket
// paths — with zero overhead when disarmed (one relaxed atomic load
// per hook site).
//
// Layering of the hook sites (chosen so injected faults never violate
// transport semantics by accident):
//  * Connection::send      — message-granular drop & delay. A dropped
//    send loses whole application messages (e.g. one h2 frame), never
//    a partial frame; a delayed send defers flushing via the owning
//    EventLoop's timers, preserving byte order.
//  * TcpSocket::write      — byte-granular truncation (partial writes,
//    always stream-safe), errno injection, and kill-at-byte-N (the
//    connection is severed once N cumulative bytes went out).
//  * UdpSocket::sendTo/recvFrom — datagram-granular drop & duplicate.
//  * sendFds/recvFds       — errno injection on the SCM_RIGHTS channel
//    (a Socket Takeover handoff interrupted mid-sendmsg).
//
// Scenario scripting: tests arm plans on a specific fd, on a *tag*
// (subsystems label their sockets — "trunk.origin", "takeover.client",
// "origin.app", …), or as a wildcard. Every injected fault increments
// a FaultStats counter and, when a MetricsRegistry is attached, a
// "fault.<kind>" counter so experiments can report disruption-under-
// fault alongside the Fig 11/12 disruption counts.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace zdr {
class MetricsRegistry;
template <typename Record>
class SeqlockRing;
}
namespace zdr::fr {
struct Event;
using EventRing = SeqlockRing<Event>;
}

namespace zdr::fault {

// Which syscall-shaped operation a hook site is about to perform.
enum class Op : uint8_t {
  kRead,      // TcpSocket/UnixSocket::read
  kWrite,     // TcpSocket/UnixSocket::write
  kSendTo,    // UdpSocket::sendTo
  kRecvFrom,  // UdpSocket::recvFrom
  kSendMsg,   // sendFds (SCM_RIGHTS control channel)
  kRecvMsg,   // recvFds
};

struct FaultSpec {
  uint64_t seed = 0x5eedULL;

  // --- message level (Connection::send) ---
  double dropSendProb = 0;  // whole send() vanishes, reported as sent
  int dropBudget = -1;      // max sends dropped (-1 ⇒ unlimited)
  double delayProb = 0;     // buffer the send, flush after `delay`
  std::chrono::milliseconds delay{0};
  int delayBudget = -1;

  // --- byte level (TcpSocket::write) ---
  double truncateProb = 0;   // short write of at most truncateBytes
  size_t truncateBytes = 1;  // clamped to ≥ 1
  uint64_t killAtByte = 0;   // sever after N cumulative bytes (0 ⇒ off)
  int killErrno = ECONNRESET;

  // --- errno injection (any Op) ---
  double errProb = 0;
  int errErrno = ECONNRESET;
  Op errOp = Op::kWrite;
  int errSkip = 0;     // let this many matching ops through first
  int errBudget = -1;  // max injections (-1 ⇒ unlimited)

  // --- datagram level (UdpSocket) ---
  double udpDropProb = 0;  // sendTo vanishes / received datagram eaten
  double udpDupProb = 0;   // sendTo transmitted twice

  // --- datagram level, element-indexed (recvMany/sendMany) ---
  // Batched paths apply fates per element, and these lists script them
  // exactly: 0-based indices into the per-direction stream of
  // datagrams this plan has seen (across batches), so "drop element 2,
  // duplicate element 4" is deterministic regardless of how the kernel
  // slices the stream into batches.
  std::vector<uint64_t> dropDatagramAt;
  std::vector<uint64_t> dupDatagramAt;
  std::vector<uint64_t> truncDatagramAt;
  size_t truncDatagramTo = 0;  // surviving bytes of a truncated element
  // Probabilistic truncation of batch elements longer than the cap.
  double udpTruncProb = 0;
  size_t udpTruncBytes = 0;
};

// Running totals of everything injected since the last reset().
struct FaultStats {
  uint64_t sendsDropped = 0;
  uint64_t sendsDelayed = 0;
  uint64_t writesTruncated = 0;
  uint64_t writesKilled = 0;
  uint64_t errnosInjected = 0;
  uint64_t datagramsDropped = 0;
  uint64_t datagramsDuplicated = 0;
  uint64_t datagramsTruncated = 0;

  [[nodiscard]] uint64_t total() const {
    return sendsDropped + sendsDelayed + writesTruncated + writesKilled +
           errnosInjected + datagramsDropped + datagramsDuplicated +
           datagramsTruncated;
  }
};

class FaultRegistry;

// One armed fault plan. Decisions are drawn from a seeded counter-mode
// generator, so a plan confined to one thread replays identically for
// a given seed; per-fd plans on loop-confined sockets are fully
// deterministic.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultSpec& spec, FaultRegistry* owner);

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  // Each helper draws a decision, records it in the registry stats,
  // and consumes the relevant budget.
  bool injectErr(Op op, int& err);
  bool dropSend();
  bool delaySend(std::chrono::milliseconds& d);
  bool dropDatagram();
  bool dupDatagram();

  // Fate of one batch element of `len` bytes moving in direction `op`
  // (kSendTo or kRecvFrom). Draws exactly one drop + one dup decision
  // (plus truncation) per element in stream order, so a given seed/spec
  // replays identically whatever the batch boundaries.
  struct DgramFate {
    bool drop = false;
    bool dup = false;
    size_t allow = SIZE_MAX;  // < len ⇒ element truncated to `allow`
  };
  DgramFate dgramFate(Op op, size_t len);

  struct WriteFate {
    enum Kind : uint8_t { kPass, kShort, kKill } kind = kPass;
    size_t allow = 0;  // kShort: write at most this many bytes
    int err = 0;       // kKill: fail with this errno
  };
  // Byte-level fate of an attempted write of `len` bytes.
  WriteFate writeFate(size_t len);

 private:
  [[nodiscard]] double unit();  // next deterministic draw in [0,1)
  static bool takeBudget(std::atomic<int>& budget);

  FaultSpec spec_;
  FaultRegistry* owner_;
  std::atomic<uint64_t> ctr_{0};
  // Per-direction datagram stream positions for element-indexed fates.
  std::atomic<uint64_t> sentDgrams_{0};
  std::atomic<uint64_t> recvDgrams_{0};
  std::atomic<uint64_t> written_{0};
  std::atomic<bool> killed_{false};
  std::atomic<int> errSkip_;
  std::atomic<int> errBudget_;
  std::atomic<int> dropBudget_;
  std::atomic<int> delayBudget_;
};

using FaultPlanPtr = std::shared_ptr<FaultPlan>;

// Global gate: hook sites bail on a single relaxed load when off.
inline std::atomic<bool> g_faultsArmed{false};
[[nodiscard]] inline bool active() noexcept {
  return g_faultsArmed.load(std::memory_order_relaxed);
}

class FaultRegistry {
 public:
  static FaultRegistry& instance();

  // Arming any plan (or setEnabled) flips the global gate on; reset()
  // flips it off and clears every plan, binding and stat.
  FaultPlanPtr armFd(int fd, const FaultSpec& spec);
  FaultPlanPtr armTag(const std::string& tag, const FaultSpec& spec);
  FaultPlanPtr armAll(const FaultSpec& spec);
  void disarmFd(int fd);
  void disarmTag(const std::string& tag);
  void setEnabled(bool on);
  void reset();

  // Subsystems label their sockets so tests can target them without
  // reaching into private state. No-op while the gate is off. An fd
  // may carry several tags (e.g. the pool-wide "origin.app" plus the
  // per-backend "origin.app.app1"); earlier bindings win when more
  // than one bound tag has an armed plan.
  void bindTag(int fd, std::string tag);
  // Forget everything keyed on `fd` (called when a socket closes, so a
  // recycled descriptor never inherits stale faults).
  void onFdClosed(int fd);

  // Per-fd injection ledger, for disruption attribution: hook sites
  // record which descriptor each injected fault landed on, and failure
  // sites ask whether the connection they are about to blame was
  // sabotaged (kFaultInjected) or died of natural causes. Cleared with
  // the fd's tags in onFdClosed — Connection snapshots the count into
  // its own state before closing (see Connection::faultInjections).
  void noteInjectionOn(int fd);
  [[nodiscard]] uint64_t injectionsOn(int fd) const;

  // Resolution order: fd-specific plan, then the plans of the fd's
  // bound tags (in binding order), then the wildcard. Null when
  // nothing matches.
  [[nodiscard]] FaultPlanPtr planFor(int fd) const;

  [[nodiscard]] FaultStats stats() const;
  // Also bump "fault.<kind>" counters in `m` on every injection
  // (nullptr detaches), and record each injection as a kFaultInjected
  // event into the registry's "fault" ring — the flight-recorder
  // track that lets a capture show exactly when the chaos fired.
  void mirrorTo(MetricsRegistry* m);

  // Internal: called by FaultPlan decision helpers.
  void note(const char* kind, std::atomic<uint64_t>& slot);

 private:
  FaultRegistry() = default;

  mutable std::mutex mutex_;
  std::map<int, FaultPlanPtr> fdPlans_;
  std::map<std::string, FaultPlanPtr> tagPlans_;
  std::map<int, std::vector<std::string>> fdTags_;
  std::map<int, uint64_t> fdInjections_;
  FaultPlanPtr wildcard_;
  MetricsRegistry* metrics_ = nullptr;
  fr::EventRing* events_ = nullptr;     // registry-owned "fault" ring
  uint32_t eventInstance_ = 0;          // interned "fault" track id

  struct {
    std::atomic<uint64_t> sendsDropped{0};
    std::atomic<uint64_t> sendsDelayed{0};
    std::atomic<uint64_t> writesTruncated{0};
    std::atomic<uint64_t> writesKilled{0};
    std::atomic<uint64_t> errnosInjected{0};
    std::atomic<uint64_t> datagramsDropped{0};
    std::atomic<uint64_t> datagramsDuplicated{0};
    std::atomic<uint64_t> datagramsTruncated{0};
  } stats_;
  friend class FaultPlan;
};

// Convenience used at socket-creation sites; compiles to one relaxed
// load when chaos mode is off.
inline void tagFd(int fd, std::string_view tag) {
  if (active()) {
    FaultRegistry::instance().bindTag(fd, std::string(tag));
  }
}

// RAII chaos mode for tests: enables the gate on construction (so
// bindTag calls made while the scenario builds its testbed register),
// fully resets the registry on destruction.
class ScopedChaosMode {
 public:
  ScopedChaosMode() { FaultRegistry::instance().setEnabled(true); }
  ~ScopedChaosMode() { FaultRegistry::instance().reset(); }
  ScopedChaosMode(const ScopedChaosMode&) = delete;
  ScopedChaosMode& operator=(const ScopedChaosMode&) = delete;
};

}  // namespace zdr::fault
