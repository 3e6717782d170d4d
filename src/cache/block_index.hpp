// Open-addressing index from a resident block to its slab node.
//
// BlockCache and SegmentedLruStack both keep their resident blocks in a slab
// of intrusively linked nodes and find them through this one table.  A slot
// is 8 bytes: the key's 32-bit hash and the slab index.  The key itself
// lives only in the slab node, so a probe compares stored hashes and reads a
// node's key only on a hash match, and the backward-shift erase recomputes
// no home slot from a key.  The table is sized once, for a fixed maximum
// entry count, at load factor 1/2 or below, and never rehashes.
#pragma once

#include <cstdint>
#include <vector>

#include "cfs/types.hpp"

namespace charisma::cache {

using cfs::FileId;
using cfs::NodeId;

struct BlockKey {
  FileId file = cfs::kNoFile;
  std::int64_t block = 0;
  bool operator==(const BlockKey&) const = default;
};

struct BlockKeyHash {
  std::size_t operator()(const BlockKey& k) const noexcept {
    std::uint64_t x = (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(k.file))
                       << 40) ^
                      static_cast<std::uint64_t>(k.block);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return static_cast<std::size_t>(x);
  }
};

namespace detail {

/// The hash an index stores for `key`; its low bits pick the home slot.
[[nodiscard]] inline std::uint32_t block_hash(const BlockKey& key) noexcept {
  return static_cast<std::uint32_t>(BlockKeyHash{}(key));
}

class BlockIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffu;

  BlockIndex() = default;
  /// Room for up to `max_entries` entries; 0 allocates nothing (and such an
  /// index must never be probed).
  explicit BlockIndex(std::size_t max_entries);

  /// The node stored under `hash` that `same(node)` accepts, or kAbsent.
  /// Terminates because the table always has vacant slots.
  template <typename Same>
  [[nodiscard]] std::uint32_t find(std::uint32_t hash, const Same& same) const {
    for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot s = slots_[i];
      if (s.node == kAbsent) return kAbsent;
      if (s.hash == hash && same(s.node)) return s.node;
    }
  }

  /// Adds `node` under `hash`; the caller guarantees its key is absent.
  void insert(std::uint32_t hash, std::uint32_t node);
  /// Removes the entry for `node`, stored under `hash`.
  void erase(std::uint32_t hash, std::uint32_t node);

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t node = kAbsent;
  };

  std::size_t mask_ = 0;  // slots_.size() - 1; slots_ is a power of two
  std::vector<Slot> slots_;
};

}  // namespace detail
}  // namespace charisma::cache
