// Trace-driven block cache with pluggable replacement.
//
// Used by the paper's three cache simulations (compute-node, I/O-node,
// combined).  Policies: LRU and FIFO (the paper's §4.8), plus the
// interprocess-aware policy the paper's §5 calls for ("replacement policies
// other than LRU or FIFO should be developed ... to optimize for
// interprocess locality") — it preferentially evicts blocks that many
// distinct nodes have already consumed, since an interleaved or broadcast
// block is dead once every party has read it.
//
// The cache is allocation-free in steady state: resident blocks live in a
// slab of intrusively linked nodes (slots reused on eviction), indexed by a
// detail::BlockIndex sized once at construction.  The sweep runner replays
// the whole trace through one of these per configuration point, so the
// per-access cost — not asymptotics — is what the fig8/fig9/§4.8 benches
// actually pay.
//
// Blocks that no other request ever touches (one-touch runs, see
// ReplayLog) enter as one counted list node instead of one node per block:
// they always miss and are never looked up again, so all they do is push
// other blocks down or out.  A run node is not in the index, and eviction
// takes units from it by count.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/block_index.hpp"

namespace charisma::cache {

enum class Policy : std::uint8_t { kLru, kFifo, kInterprocessAware };

[[nodiscard]] constexpr const char* to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kLru: return "LRU";
    case Policy::kFifo: return "FIFO";
    case Policy::kInterprocessAware: return "IP-aware";
  }
  return "?";
}

class BlockCache {
 public:
  BlockCache(std::size_t capacity, Policy policy);

  /// Touches `key` on behalf of `node`; returns true on hit.  Misses insert
  /// the block (evicting per policy when full).  capacity == 0 never hits.
  bool access(const BlockKey& key, NodeId node);

  /// Inserts `n` blocks that are never accessed again: the same occupancy,
  /// counters and later hits as `n` misses on fresh keys, in time linear in
  /// the list nodes it evicts.  LRU and FIFO only (IP-aware eviction reads
  /// per-block accessor sets).  capacity == 0 stores nothing.
  void insert_run(std::uint64_t n);

  [[nodiscard]] bool contains(const BlockKey& key) const {
    return capacity_ != 0 && find(key) != kNil;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t accesses() const noexcept { return accesses_; }
  [[nodiscard]] double hit_rate() const noexcept {
    return accesses_ ? static_cast<double>(hits_) /
                           static_cast<double>(accesses_)
                     : 0.0;
  }

 private:
  static constexpr std::uint32_t kNil = detail::BlockIndex::kAbsent;

  // Slab node on the intrusive recency list: front (head_) = most recent
  // (LRU) / newest (FIFO); prev points toward the front.  A run node has
  // key.file == kNoFile and holds key.block anonymous blocks.
  struct Node {
    BlockKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  [[nodiscard]] static bool is_run(const Node& n) noexcept {
    return n.key.file == cfs::kNoFile;
  }
  [[nodiscard]] std::uint32_t find(const BlockKey& key) const {
    return index_.find(detail::block_hash(key), [&](std::uint32_t idx) {
      return nodes_[idx].key == key;
    });
  }
  void unlink(std::uint32_t idx);
  void push_front(std::uint32_t idx);
  /// A slab node for a new list entry: a freed one, else a fresh one.
  std::uint32_t allocate();
  /// Removes one block per policy.  Returns the slab index it freed, or kNil
  /// when the block came off a run that still holds others.
  std::uint32_t evict_one();

  std::size_t capacity_;
  Policy policy_;
  detail::BlockIndex index_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;  // slab nodes freed by run inserts
  std::vector<std::unordered_set<NodeId>> accessors_;  // IP-aware only
  std::uint32_t head_ = kNil;
  std::uint32_t tail_ = kNil;
  std::size_t size_ = 0;  // resident blocks, run members included
  std::uint64_t hits_ = 0;
  std::uint64_t accesses_ = 0;

  static constexpr std::size_t kEvictionScan = 8;  // IP-aware candidate set
};

}  // namespace charisma::cache
