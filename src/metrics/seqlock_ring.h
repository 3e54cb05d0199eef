// The one lock-free record ring under the span sinks (trace::SpanSink)
// and the flight recorder (fr::EventRing).
//
// Fixed-size multi-producer ring of all-scalar records. record() is
// lock-free and never allocates: claim an index with one fetch_add,
// mark the slot in-progress (odd sequence), store the record's words,
// publish (even sequence). When the ring wraps, the oldest records are
// overwritten and counted as dropped — exactly, since every record
// attempt is one fetch_add. snapshot() is non-destructive, runs
// concurrently with writers (a live /__stats or /__trace scrape), and
// skips slots that are mid-write or were overwritten during the copy,
// so a torn record is detected and discarded, never handed out. A
// writer lapped by another (stalled for a whole ring of records) gives
// its record up instead of tearing the slot; snapshots skip that slot.
//
// A Record type supplies its fixed word layout:
//   using Words = std::array<uint64_t, N>;
//   Words pack() const noexcept;
//   static Record unpack(const Words&) noexcept;
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace zdr {

// Two 32-bit fields sharing one ring word (hi << 32 | lo).
constexpr uint64_t packHalves(uint32_t hi, uint32_t lo) noexcept {
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

template <typename Record>
class SeqlockRing {
 public:
  // Capacity is rounded up to a power of two (0 and 1 both give 1).
  explicit SeqlockRing(size_t capacity)
      : capacity_(roundUpPow2(capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {}
  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  void record(const Record& r) noexcept {
    const typename Record::Words words = r.pack();
    const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = slots_[idx & mask_];
    const uint64_t writing = idx * 2 + 1;
    // Take the slot only from a published older generation. A writer
    // stalled for a whole lap can still be writing it (odd), or a
    // writer a lap ahead has already taken it (newer): then this record
    // is given up — the slot reads as a hole, like a mid-write one —
    // because two writers in one slot would let the stale one's words
    // land under the newer one's even sequence, where no reader
    // re-check can see them.
    uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    do {
      if ((seq & 1) != 0 || seq > writing) {
        return;
      }
    } while (!slot.seq.compare_exchange_weak(seq, writing,
                                             std::memory_order_relaxed));
    // Without this fence the word stores below could become visible
    // before the odd mark, and a reader on a weakly ordered CPU could
    // copy new words while still seeing the previous even sequence.
    // The fence pairs with the reader's acquire fence: a reader that
    // copied any of these words must see the odd (or a later) sequence
    // on its re-check. (Boehm, "Can Seqlocks Get Along with Programming
    // Language Memory Models?", MSPC 2012.)
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < words.size(); ++i) {
      slot.words[i].store(words[i], std::memory_order_relaxed);
    }
    slot.seq.store(idx * 2 + 2, std::memory_order_release);
  }

  // Appends every currently published record, oldest first. Returns
  // the number appended.
  size_t snapshot(std::vector<Record>& out) const {
    const uint64_t end = next_.load(std::memory_order_acquire);
    const uint64_t begin = end > capacity_ ? end - capacity_ : 0;
    size_t appended = 0;
    for (uint64_t idx = begin; idx < end; ++idx) {
      const Slot& slot = slots_[idx & mask_];
      const uint64_t published = idx * 2 + 2;
      if (slot.seq.load(std::memory_order_acquire) != published) {
        continue;  // mid-write or already overwritten by a newer record
      }
      typename Record::Words words;
      for (size_t i = 0; i < words.size(); ++i) {
        words[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      // The word loads above must not sink past the re-check: an
      // acquire load only orders the reads that follow it. A writer
      // that claimed the slot while we copied may have mixed
      // generations — discard the copy.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != published) {
        continue;
      }
      out.push_back(Record::unpack(words));
      ++appended;
    }
    return appended;
  }

  [[nodiscard]] uint64_t recorded() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t dropped() const noexcept {
    const uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  [[nodiscard]] size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    // seq: 0 = empty, 2*idx+1 = writing, 2*idx+2 = published-for-idx.
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> words[std::tuple_size_v<typename Record::Words>]{};
  };

  static size_t roundUpPow2(size_t v) {
    size_t p = 1;
    while (p < v) {
      p <<= 1;
    }
    return p;
  }

  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};
};

}  // namespace zdr
