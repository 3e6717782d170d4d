#include "cache/block_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace charisma::cache {

BlockCache::BlockCache(std::size_t capacity, Policy policy)
    : capacity_(capacity), policy_(policy), index_(capacity) {
  CHECK(capacity_ < kNil, "block cache capacity ", capacity_,
        " exceeds the slab index range");
}

bool BlockCache::access(const BlockKey& key, NodeId node) {
  ++accesses_;
  if (capacity_ == 0) return false;
  const std::uint32_t hash = detail::block_hash(key);
  {
    const std::uint32_t idx = index_.find(
        hash, [&](std::uint32_t i) { return nodes_[i].key == key; });
    if (idx != kNil) {
      ++hits_;
      if (policy_ != Policy::kFifo && idx != head_) {
        // LRU and IP-aware promote on hit; FIFO keeps insertion order.
        unlink(idx);
        push_front(idx);
      }
      if (policy_ == Policy::kInterprocessAware) accessors_[idx].insert(node);
      return true;
    }
  }
  std::uint32_t idx = size_ >= capacity_ ? evict_one() : kNil;
  if (idx == kNil) idx = allocate();
  nodes_[idx].key = key;
  if (policy_ == Policy::kInterprocessAware) {
    accessors_[idx].clear();
    accessors_[idx].insert(node);
  }
  push_front(idx);
  ++size_;
  index_.insert(hash, idx);
  CHECK(size_ <= capacity_, "cache occupancy ", size_, " exceeds capacity ",
        capacity_);
  DCHECK(size_ >= nodes_.size() - free_.size(),
         "recency slab out of sync with entry count");
  return false;
}

void BlockCache::insert_run(std::uint64_t n) {
  CHECK(policy_ != Policy::kInterprocessAware,
        "IP-aware caches step one-touch blocks one by one");
  accesses_ += n;
  if (capacity_ == 0 || n == 0) return;
  // n fresh misses in a row: each evicts from the tail once the cache is
  // full, and only the last `capacity` of them survive.
  const std::size_t kept =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, capacity_));
  std::size_t evict = size_ + kept > capacity_ ? size_ + kept - capacity_ : 0;
  while (evict > 0) {
    Node& tail = nodes_[tail_];
    if (!is_run(tail)) {
      free_.push_back(evict_one());
      --evict;
      continue;
    }
    const auto taken =
        std::min(evict, static_cast<std::size_t>(tail.key.block));
    tail.key.block -= static_cast<std::int64_t>(taken);
    size_ -= taken;
    evict -= taken;
    if (tail.key.block == 0) {
      const std::uint32_t idx = tail_;
      unlink(idx);
      free_.push_back(idx);
    }
  }
  if (head_ != kNil && is_run(nodes_[head_])) {
    nodes_[head_].key.block += static_cast<std::int64_t>(kept);
  } else {
    const std::uint32_t idx = allocate();
    nodes_[idx].key = BlockKey{cfs::kNoFile, static_cast<std::int64_t>(kept)};
    push_front(idx);
  }
  size_ += kept;
  CHECK(size_ <= capacity_, "cache occupancy ", size_, " exceeds capacity ",
        capacity_);
}

std::uint32_t BlockCache::allocate() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  nodes_.push_back(Node{});
  if (policy_ == Policy::kInterprocessAware) accessors_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void BlockCache::unlink(std::uint32_t idx) {
  Node& n = nodes_[idx];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = kNil;
  n.next = kNil;
}

void BlockCache::push_front(std::uint32_t idx) {
  Node& n = nodes_[idx];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) nodes_[head_].prev = idx;
  head_ = idx;
  if (tail_ == kNil) tail_ = idx;
}

std::uint32_t BlockCache::evict_one() {
  DCHECK(tail_ != kNil, "evicting from an empty cache");
  std::uint32_t victim = tail_;
  --size_;
  if (is_run(nodes_[victim])) {
    // Runs leave by count: only the last member frees the node.
    if (--nodes_[victim].key.block > 0) return kNil;
    unlink(victim);
    return victim;
  }
  if (policy_ == Policy::kInterprocessAware) {
    // IP-aware: among the coldest few blocks, evict the one consumed by the
    // most distinct nodes — its interprocess reuse is behind it.
    std::size_t victim_nodes = accessors_[victim].size();
    std::uint32_t it = victim;
    for (std::size_t scanned = 1;
         scanned < kEvictionScan && nodes_[it].prev != kNil; ++scanned) {
      it = nodes_[it].prev;
      const std::size_t n = accessors_[it].size();
      if (n > victim_nodes) {
        victim = it;
        victim_nodes = n;
      }
    }
  }
  index_.erase(detail::block_hash(nodes_[victim].key), victim);
  unlink(victim);
  return victim;
}

}  // namespace charisma::cache
