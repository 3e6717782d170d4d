#include "cache/block_index.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace charisma::cache::detail {

BlockIndex::BlockIndex(std::size_t max_entries) {
  if (max_entries == 0) return;
  CHECK(max_entries < (std::size_t{1} << 31), "block index for ", max_entries,
        " entries exceeds the 32-bit hash range");
  // Twice the entry bound rounded up to a power of two: the load factor
  // never passes 1/2 (probes stay short) and the table never rehashes.
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(16, max_entries * 2));
  slots_.resize(buckets);
  mask_ = buckets - 1;
}

void BlockIndex::insert(std::uint32_t hash, std::uint32_t node) {
  std::size_t i = hash & mask_;
  while (slots_[i].node != kAbsent) i = (i + 1) & mask_;
  slots_[i] = Slot{hash, node};
}

void BlockIndex::erase(std::uint32_t hash, std::uint32_t node) {
  std::size_t gap = hash & mask_;
  while (slots_[gap].node != node) {
    CHECK(slots_[gap].node != kAbsent, "slab node ", node,
          " missing from the block index");
    gap = (gap + 1) & mask_;
  }
  // Backward-shift deletion: walk the chain after the gap and pull back any
  // entry whose home slot lies cyclically at or before the gap, so lookups
  // never need tombstones.
  std::size_t scan = gap;
  for (;;) {
    slots_[gap].node = kAbsent;
    for (;;) {
      scan = (scan + 1) & mask_;
      if (slots_[scan].node == kAbsent) return;
      const std::size_t home = slots_[scan].hash & mask_;
      const bool movable = (scan > gap) ? (home <= gap || home > scan)
                                        : (home <= gap && home > scan);
      if (movable) {
        slots_[gap] = slots_[scan];
        gap = scan;
        break;
      }
    }
  }
}

}  // namespace charisma::cache::detail
