// Key→value map with LRU recency ordering.
//
// One std::list (MRU at the front) plus an index of list iterators;
// touch() refreshes recency with std::list::splice, so iterators stay
// stable and no node is reallocated. This is the list idiom that used
// to be duplicated verbatim by the edge response cache and the L4
// connection table — policy (TTL, eviction counters, locking, the
// evict-before-or-after-insert ordering contract) deliberately stays
// with the caller; this class owns only the recency mechanics.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace zdr {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  // Finds `key` and marks it most-recently-used. nullptr when absent.
  Value* touch(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  // Inserts a new entry at the MRU position. The key must be absent
  // (use touch() first — callers decide what an overwrite means).
  void insertFront(Key key, Value value) {
    order_.emplace_front(std::move(key), std::move(value));
    index_[order_.front().first] = order_.begin();
  }

  // Drops the least-recently-used entry. False when already empty.
  bool evictOldest() {
    if (order_.empty()) {
      return false;
    }
    index_.erase(order_.back().first);
    order_.pop_back();
    return true;
  }

  bool erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void clear() {
    order_.clear();
    index_.clear();
  }

  [[nodiscard]] size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] bool empty() const noexcept { return index_.empty(); }

 private:
  using Node = std::pair<Key, Value>;
  std::list<Node> order_;  // MRU first
  std::unordered_map<Key, typename std::list<Node>::iterator, Hash> index_;
};

}  // namespace zdr
