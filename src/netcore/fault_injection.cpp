#include "netcore/fault_injection.h"

#include "metrics/metrics.h"

namespace zdr::fault {

namespace {

// splitmix64: a counter-mode generator is what makes plans replayable —
// decision k depends only on (seed, k), never on wall clock or pointer
// values.
uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ------------------------------------------------------------------ plan

FaultPlan::FaultPlan(const FaultSpec& spec, FaultRegistry* owner)
    : spec_(spec),
      owner_(owner),
      errSkip_(spec.errSkip),
      errBudget_(spec.errBudget),
      dropBudget_(spec.dropBudget),
      delayBudget_(spec.delayBudget) {
  if (spec_.truncateBytes == 0) {
    spec_.truncateBytes = 1;
  }
}

double FaultPlan::unit() {
  uint64_t k = ctr_.fetch_add(1, std::memory_order_relaxed);
  uint64_t r = splitmix64(spec_.seed ^ (k * 0x2545f4914f6cdd1dULL));
  return static_cast<double>(r >> 11) * 0x1.0p-53;
}

bool FaultPlan::takeBudget(std::atomic<int>& budget) {
  int cur = budget.load(std::memory_order_relaxed);
  while (true) {
    if (cur < 0) {
      return true;  // unlimited
    }
    if (cur == 0) {
      return false;
    }
    if (budget.compare_exchange_weak(cur, cur - 1,
                                     std::memory_order_relaxed)) {
      return true;
    }
  }
}

bool FaultPlan::injectErr(Op op, int& err) {
  if (spec_.errProb <= 0 || op != spec_.errOp) {
    return false;
  }
  if (unit() >= spec_.errProb) {
    return false;
  }
  // Decision fired; honour skip-then-budget ordering.
  int skip = errSkip_.load(std::memory_order_relaxed);
  while (skip > 0) {
    if (errSkip_.compare_exchange_weak(skip, skip - 1,
                                       std::memory_order_relaxed)) {
      return false;
    }
  }
  if (!takeBudget(errBudget_)) {
    return false;
  }
  err = spec_.errErrno;
  owner_->note("errno_injected", owner_->stats_.errnosInjected);
  return true;
}

bool FaultPlan::dropSend() {
  if (spec_.dropSendProb <= 0 || unit() >= spec_.dropSendProb ||
      !takeBudget(dropBudget_)) {
    return false;
  }
  owner_->note("send_drop", owner_->stats_.sendsDropped);
  return true;
}

bool FaultPlan::delaySend(std::chrono::milliseconds& d) {
  if (spec_.delayProb <= 0 || unit() >= spec_.delayProb ||
      !takeBudget(delayBudget_)) {
    return false;
  }
  d = spec_.delay;
  owner_->note("send_delay", owner_->stats_.sendsDelayed);
  return true;
}

bool FaultPlan::dropDatagram() {
  if (spec_.udpDropProb <= 0 || unit() >= spec_.udpDropProb) {
    return false;
  }
  owner_->note("udp_drop", owner_->stats_.datagramsDropped);
  return true;
}

bool FaultPlan::dupDatagram() {
  if (spec_.udpDupProb <= 0 || unit() >= spec_.udpDupProb) {
    return false;
  }
  owner_->note("udp_duplicate", owner_->stats_.datagramsDuplicated);
  return true;
}

namespace {
bool contains(const std::vector<uint64_t>& v, uint64_t x) {
  for (uint64_t e : v) {
    if (e == x) {
      return true;
    }
  }
  return false;
}
}  // namespace

FaultPlan::DgramFate FaultPlan::dgramFate(Op op, size_t len) {
  DgramFate fate;
  auto& seq = op == Op::kRecvFrom ? recvDgrams_ : sentDgrams_;
  uint64_t idx = seq.fetch_add(1, std::memory_order_relaxed);

  // Exact element-indexed scripting first; the probabilistic draws run
  // unconditionally after so the decision stream stays aligned however
  // the kernel slices the stream into batches.
  bool drop = contains(spec_.dropDatagramAt, idx);
  bool dup = contains(spec_.dupDatagramAt, idx);
  if (spec_.udpDropProb > 0 && unit() < spec_.udpDropProb) {
    drop = true;
  }
  if (spec_.udpDupProb > 0 && unit() < spec_.udpDupProb) {
    dup = true;
  }
  if (drop) {
    fate.drop = true;
    owner_->note("udp_drop", owner_->stats_.datagramsDropped);
    return fate;  // a dropped element cannot also be duplicated
  }
  if (dup) {
    fate.dup = true;
    owner_->note("udp_duplicate", owner_->stats_.datagramsDuplicated);
  }
  if (contains(spec_.truncDatagramAt, idx)) {
    fate.allow = spec_.truncDatagramTo;
  } else if (spec_.udpTruncProb > 0 && len > spec_.udpTruncBytes &&
             unit() < spec_.udpTruncProb) {
    fate.allow = spec_.udpTruncBytes;
  }
  if (fate.allow < len) {
    owner_->note("udp_truncate", owner_->stats_.datagramsTruncated);
  } else {
    fate.allow = SIZE_MAX;
  }
  return fate;
}

FaultPlan::WriteFate FaultPlan::writeFate(size_t len) {
  WriteFate fate;
  if (spec_.killAtByte > 0) {
    if (killed_.load(std::memory_order_relaxed)) {
      fate.kind = WriteFate::kKill;
      fate.err = spec_.killErrno;
      return fate;
    }
    uint64_t before = written_.fetch_add(len, std::memory_order_relaxed);
    if (before + len >= spec_.killAtByte) {
      // The write crossing the boundary goes out short (the bytes the
      // kernel "accepted" before the cable was cut); everything after
      // fails hard.
      killed_.store(true, std::memory_order_relaxed);
      owner_->note("write_kill", owner_->stats_.writesKilled);
      uint64_t allow =
          spec_.killAtByte > before ? spec_.killAtByte - before : 0;
      if (allow == 0) {
        fate.kind = WriteFate::kKill;
        fate.err = spec_.killErrno;
      } else {
        fate.kind = WriteFate::kShort;
        fate.allow = static_cast<size_t>(allow);
      }
      return fate;
    }
  }
  if (spec_.truncateProb > 0 && len > spec_.truncateBytes &&
      unit() < spec_.truncateProb) {
    owner_->note("write_truncate", owner_->stats_.writesTruncated);
    fate.kind = WriteFate::kShort;
    fate.allow = spec_.truncateBytes;
    return fate;
  }
  return fate;
}

// -------------------------------------------------------------- registry

FaultRegistry& FaultRegistry::instance() {
  static FaultRegistry* registry = new FaultRegistry();  // never destroyed
  return *registry;
}

FaultPlanPtr FaultRegistry::armFd(int fd, const FaultSpec& spec) {
  auto plan = std::make_shared<FaultPlan>(spec, this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fdPlans_[fd] = plan;
  }
  setEnabled(true);
  return plan;
}

FaultPlanPtr FaultRegistry::armTag(const std::string& tag,
                                   const FaultSpec& spec) {
  auto plan = std::make_shared<FaultPlan>(spec, this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tagPlans_[tag] = plan;
  }
  setEnabled(true);
  return plan;
}

FaultPlanPtr FaultRegistry::armAll(const FaultSpec& spec) {
  auto plan = std::make_shared<FaultPlan>(spec, this);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wildcard_ = plan;
  }
  setEnabled(true);
  return plan;
}

void FaultRegistry::disarmFd(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  fdPlans_.erase(fd);
}

void FaultRegistry::disarmTag(const std::string& tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  tagPlans_.erase(tag);
}

void FaultRegistry::setEnabled(bool on) {
  g_faultsArmed.store(on, std::memory_order_relaxed);
}

void FaultRegistry::reset() {
  setEnabled(false);
  std::lock_guard<std::mutex> lock(mutex_);
  fdPlans_.clear();
  tagPlans_.clear();
  fdTags_.clear();
  fdInjections_.clear();
  wildcard_.reset();
  metrics_ = nullptr;
  events_ = nullptr;
  eventInstance_ = 0;
  stats_.sendsDropped.store(0, std::memory_order_relaxed);
  stats_.sendsDelayed.store(0, std::memory_order_relaxed);
  stats_.writesTruncated.store(0, std::memory_order_relaxed);
  stats_.writesKilled.store(0, std::memory_order_relaxed);
  stats_.errnosInjected.store(0, std::memory_order_relaxed);
  stats_.datagramsDropped.store(0, std::memory_order_relaxed);
  stats_.datagramsDuplicated.store(0, std::memory_order_relaxed);
  stats_.datagramsTruncated.store(0, std::memory_order_relaxed);
}

void FaultRegistry::bindTag(int fd, std::string tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& tags = fdTags_[fd];
  for (const auto& t : tags) {
    if (t == tag) {
      return;
    }
  }
  tags.push_back(std::move(tag));
}

void FaultRegistry::onFdClosed(int fd) {
  std::lock_guard<std::mutex> lock(mutex_);
  fdTags_.erase(fd);
  fdPlans_.erase(fd);
  fdInjections_.erase(fd);
}

void FaultRegistry::noteInjectionOn(int fd) {
  if (fd < 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++fdInjections_[fd];
}

uint64_t FaultRegistry::injectionsOn(int fd) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fdInjections_.find(fd);
  return it != fdInjections_.end() ? it->second : 0;
}

FaultPlanPtr FaultRegistry::planFor(int fd) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = fdPlans_.find(fd); it != fdPlans_.end()) {
    return it->second;
  }
  if (auto tagIt = fdTags_.find(fd); tagIt != fdTags_.end()) {
    for (const auto& tag : tagIt->second) {
      if (auto it = tagPlans_.find(tag); it != tagPlans_.end()) {
        return it->second;
      }
    }
  }
  return wildcard_;
}

FaultStats FaultRegistry::stats() const {
  FaultStats s;
  s.sendsDropped = stats_.sendsDropped.load(std::memory_order_relaxed);
  s.sendsDelayed = stats_.sendsDelayed.load(std::memory_order_relaxed);
  s.writesTruncated = stats_.writesTruncated.load(std::memory_order_relaxed);
  s.writesKilled = stats_.writesKilled.load(std::memory_order_relaxed);
  s.errnosInjected = stats_.errnosInjected.load(std::memory_order_relaxed);
  s.datagramsDropped =
      stats_.datagramsDropped.load(std::memory_order_relaxed);
  s.datagramsDuplicated =
      stats_.datagramsDuplicated.load(std::memory_order_relaxed);
  s.datagramsTruncated =
      stats_.datagramsTruncated.load(std::memory_order_relaxed);
  return s;
}

void FaultRegistry::mirrorTo(MetricsRegistry* m) {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics_ = m;
  events_ = m != nullptr ? &m->eventRing("fault") : nullptr;
  eventInstance_ = m != nullptr ? trace::internInstance("fault") : 0;
}

void FaultRegistry::note(const char* kind, std::atomic<uint64_t>& slot) {
  slot.fetch_add(1, std::memory_order_relaxed);
  MetricsRegistry* m = nullptr;
  fr::EventRing* ring = nullptr;
  uint32_t instance = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    m = metrics_;
    ring = events_;
    instance = eventInstance_;
  }
  if (m != nullptr) {
    m->counter(std::string("fault.") + kind).add(1);
  }
  // Injections are rare (scripted chaos), so interning the kind per
  // event is fine; the decoded trace shows which fault fired when.
  fr::recordEvent(ring, fr::EventKind::kFaultInjected, instance, 0, 0,
                  trace::internInstance(kind));
}

}  // namespace zdr::fault
