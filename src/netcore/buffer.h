// Growable byte queue used for per-connection read/write buffering.
//
// Modeled loosely on a flattened folly::IOBuf: one contiguous region
// with a consumed prefix (compacted lazily) and a writable tail.
// Layout:   [0, head_) dead   [head_, tail_) readable   [tail_, end) writable
//
// The writable-tail API (ensureWritable / writableSpan / commit) lets
// readv(2) land bytes directly in the buffer instead of bouncing them
// through a stack chunk + memcpy, which is how Connection reads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace zdr {

class Buffer {
 public:
  Buffer() = default;

  [[nodiscard]] size_t size() const noexcept { return tail_ - head_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  // Readable region.
  [[nodiscard]] std::span<const std::byte> readable() const noexcept {
    return {data_.data() + head_, size()};
  }
  [[nodiscard]] std::string_view view() const noexcept {
    return {reinterpret_cast<const char*>(data_.data() + head_), size()};
  }

  // --- writable tail ---
  // Guarantees at least `n` writable bytes after the readable region,
  // compacting the dead prefix before growing.
  void ensureWritable(size_t n) {
    if (data_.size() - tail_ >= n) {
      return;
    }
    if (head_ > 0) {
      compact();
      if (data_.size() - tail_ >= n) {
        return;
      }
    }
    data_.resize(std::max(data_.size() * 2, tail_ + n));
  }
  // The current writable region (may be empty; call ensureWritable
  // first to size it).
  [[nodiscard]] std::span<std::byte> writableSpan() noexcept {
    return {data_.data() + tail_, data_.size() - tail_};
  }
  // Marks `n` bytes of the writable region as readable (n must be
  // ≤ writableSpan().size()).
  void commit(size_t n) noexcept { tail_ += n; }

  void append(std::span<const std::byte> bytes) {
    if (bytes.empty()) {
      return;
    }
    ensureWritable(bytes.size());
    std::memcpy(data_.data() + tail_, bytes.data(), bytes.size());
    tail_ += bytes.size();
  }
  void append(std::string_view s) {
    append(std::as_bytes(std::span(s.data(), s.size())));
  }
  void appendU8(uint8_t v) {
    ensureWritable(1);
    data_[tail_++] = static_cast<std::byte>(v);
  }
  void appendU16(uint16_t v) {  // big-endian
    appendU8(static_cast<uint8_t>(v >> 8));
    appendU8(static_cast<uint8_t>(v));
  }
  void appendU32(uint32_t v) {
    appendU16(static_cast<uint16_t>(v >> 16));
    appendU16(static_cast<uint16_t>(v));
  }
  void appendU64(uint64_t v) {
    appendU32(static_cast<uint32_t>(v >> 32));
    appendU32(static_cast<uint32_t>(v));
  }

  // Consumes `n` bytes from the front (n must be ≤ size()).
  void consume(size_t n) {
    head_ += n;
    if (head_ == tail_) {
      head_ = tail_ = 0;
      return;
    }
    // Compact once the dead prefix dominates, to bound memory.
    if (head_ > 4096 && head_ > tail_ / 2) {
      compact();
    }
  }

  void clear() noexcept { head_ = tail_ = 0; }

  // Big-endian peeks (offset relative to readable front). Caller must
  // check size() first.
  [[nodiscard]] uint8_t peekU8(size_t off = 0) const {
    return static_cast<uint8_t>(data_[head_ + off]);
  }
  [[nodiscard]] uint16_t peekU16(size_t off = 0) const {
    return static_cast<uint16_t>((peekU8(off) << 8) | peekU8(off + 1));
  }
  [[nodiscard]] uint32_t peekU32(size_t off = 0) const {
    return (static_cast<uint32_t>(peekU16(off)) << 16) | peekU16(off + 2);
  }
  [[nodiscard]] uint64_t peekU64(size_t off = 0) const {
    return (static_cast<uint64_t>(peekU32(off)) << 32) | peekU32(off + 4);
  }

  // Copies the first n readable bytes into a string.
  [[nodiscard]] std::string toString(size_t n) const {
    n = std::min(n, size());
    return std::string(view().substr(0, n));
  }

 private:
  void compact() {
    std::memmove(data_.data(), data_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }

  std::vector<std::byte> data_;
  size_t head_ = 0;
  size_t tail_ = 0;  // end of readable region; data_.size() is capacity
};

}  // namespace zdr
