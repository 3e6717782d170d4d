// Single-pass multi-capacity cache sweeps.
//
// LRU has the inclusion property (Mattson et al., "Evaluation techniques
// for storage hierarchies", 1970): at every instant a C-buffer LRU cache
// holds exactly the C most-recently-used blocks, so the caches of every
// capacity are nested and one pass can answer all buffer counts at once.
// An access hits a C-buffer cache exactly when the block's position in the
// full LRU stack is < C — so the only question per access is *which band*
// between consecutive swept capacities the position falls in.
//
// SegmentedLruStack answers that band in O(1) without ever computing the
// exact position: the LRU list is partitioned into segments at the swept
// capacities by sentinel nodes, every resident block carries its segment
// index, and an access repairs the boundaries with at most one constant-
// time sentinel swap per segment (positions only ever shift by one).
// Blocks pushed past the largest capacity are evicted outright — beyond it
// they are indistinguishable from cold — which keeps the structure exactly
// as big as the largest simulated cache.  Hits in the top segment (the
// common case: most reuse is recent) move to the front with no boundary
// repair at all, making the per-access cost comparable to a single
// BlockCache access instead of one per swept capacity.
//
// Blocks of one-touch requests (see ReplayLog) enter as runs: one list node
// counting n anonymous blocks, never indexed, since no later access can hit
// them.  Inserting n blocks at the top shifts every boundary by up to n
// places, so instead of cascading blocks down one at a time the stack moves
// each sentinel up by the number of blocks that cross it: the nodes it
// passes are relabelled into the next segment, a run it lands inside is
// split in two, and adjacent runs of one segment are merged.  Past the
// largest capacity the crossing blocks are evicted; a run loses them by
// count.  A run insert costs O(segments + crossing nodes), not
// O(n x segments), and a hit or a single miss is the same walk with n = 1.
//
// FIFO has no inclusion property (a bigger FIFO cache is not a superset of
// a smaller one), so each capacity's cache must be stepped individually —
// but FIFO never reorders on a hit, so an inserted block survives exactly
// `capacity` further insertions into its (capacity, node) queue.  That
// makes eviction implicit: fifo_io_group stamps every insertion with the
// queue's running sequence number and keeps one shared hash entry per
// block holding its stamps for all capacities, so presence is a stamp
// comparison, evictions write nothing, and one probe per block access
// covers every config instead of one full hash-map per config per pass.
// A one-touch request only advances its queues (ins += n) and writes no
// stamp.  The 32-bit queue counters are checked against wrapping.
// The IP-aware policy (stateful eviction scans) stays on the generic
// batched replay in simulators.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cache/simulators.hpp"

namespace charisma::cache {

/// One LRU stack standing in for LRU caches of several capacities at once.
/// Constructed with the sorted distinct capacities; each access reports the
/// index of the smallest capacity that would have hit (its "bucket"), or
/// kMiss (== capacities.size()) when even the largest missed.
class SegmentedLruStack {
 public:
  explicit SegmentedLruStack(const std::vector<std::size_t>& capacities);

  /// Bucket the access would land in, without touching the stack — the
  /// compute-node simulation's contains-before-access semantics.
  [[nodiscard]] std::size_t peek(const BlockKey& key) const {
    const std::uint32_t idx = find(key, detail::block_hash(key));
    return idx == kNil ? miss_bucket() : nodes_[idx].seg + zero_offset_;
  }
  /// Moves (or inserts) the block to the top of the stack.
  void touch(const BlockKey& key);
  /// peek + touch with a single probe — the I/O-node simulation's
  /// access-as-you-go semantics.
  std::size_t access(const BlockKey& key);
  /// Inserts `n` blocks that are never accessed again (a one-touch run):
  /// the same stack as `n` accesses to fresh keys, each of which would land
  /// in miss_bucket(), in time linear in segments plus the list nodes that
  /// cross a boundary.
  void insert_run(std::uint64_t n);

  /// The miss bucket: the number of swept capacities (a zero capacity,
  /// which can never hit, counts here but gets no segment).
  [[nodiscard]] std::size_t miss_bucket() const noexcept {
    return segments_ + zero_offset_;
  }
  /// Resident blocks, run members included.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::uint32_t kNil = detail::BlockIndex::kAbsent;

  /// Slab node: real blocks, runs and the per-capacity boundary sentinels
  /// share the recency list.  Sentinel i (slab index i < segments_) sits
  /// right after the last block that capacity capacities[i] would hold.  A
  /// run node (key.file == kNoFile past the sentinels) stands for key.block
  /// anonymous blocks of one segment.
  struct Node {
    BlockKey key;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t seg = 0;
  };

  [[nodiscard]] std::uint32_t find(const BlockKey& key,
                                   std::uint32_t hash) const {
    return index_.find(hash, [&](std::uint32_t idx) {
      return nodes_[idx].key == key;
    });
  }
  [[nodiscard]] bool is_run(std::uint32_t idx) const noexcept {
    return idx >= segments_ && nodes_[idx].key.file == cfs::kNoFile;
  }
  void unlink(std::uint32_t idx);
  void insert_before(std::uint32_t pos, std::uint32_t idx);
  void push_front(std::uint32_t idx);
  /// A slab node for a new list entry: a freed one, else a fresh one.
  std::uint32_t allocate();
  /// Re-front an existing node from segment `seg` (hit path).
  void promote(std::uint32_t idx, std::uint32_t seg);
  /// Inserts a new block at the front.
  void insert_cold(const BlockKey& key, std::uint32_t hash);
  /// After `n` new blocks went in at the front of a stack that held
  /// `old_size`, moves every boundary back to its capacity and evicts what
  /// fell past the largest one.
  void settle(std::size_t old_size, std::size_t n);
  /// Moves sentinel `j` (not the last) up by `m` blocks: the nodes it passes
  /// join segment j + 1, and a run it lands inside is split.
  void shift_boundary(std::uint32_t j, std::size_t m);
  /// Evicts the `m` blocks right above the last sentinel.
  void evict_tail(std::size_t m);

  std::vector<std::size_t> capacities_;  // nonzero, strictly increasing
  std::size_t segments_ = 0;             // == capacities_.size()
  std::size_t zero_offset_ = 0;          // 1 when a zero capacity was swept
  detail::BlockIndex index_;
  std::vector<Node> nodes_;  // [0, segments_) sentinels, rest blocks
  std::vector<std::uint32_t> free_;
  std::uint32_t head_ = kNil;
  std::size_t size_ = 0;  // resident blocks (sentinels excluded)
};

namespace detail {

/// One compute-node slice of the Figure 8 stack pass: per job, bucket i
/// counts the reads whose smallest fully-serving capacity is
/// buffer_counts[i]; bucket k (== buffer_counts.size()) counts reads every
/// capacity missed.  Buckets add across slices.
struct ComputeBuckets {
  std::map<JobId, std::vector<std::uint64_t>> per_job;
  std::uint64_t reads = 0;
};

/// Replays the reads of the (job, node) caches whose compute node `slice`
/// owns, with per-(job, node) LRU caches of `block_size` blocks, for every
/// buffer count in `buffer_counts` (sorted ascending, distinct) at once.
[[nodiscard]] ComputeBuckets stack_compute_slice(
    const ReplayLog& ops, std::int64_t block_size,
    const std::vector<std::size_t>& buffer_counts, NodeSlice slice = {});

/// Figure 8 results for the `k` buffer counts of one stack pass, from its
/// slices.  Bit-identical to replay_compute_cache run once per count.
[[nodiscard]] std::vector<ComputeCacheResult> finish_compute_slices(
    std::vector<ComputeBuckets> slices, std::size_t k);

/// Figure 9 / §4.8 in one pass: exact IoNodeSimResult for every per-node
/// buffer count in `per_node_buffers` (sorted ascending, distinct).  `shape`
/// supplies the shared topology — io_nodes, block_size and the front-cache
/// setting; its policy must be kLru and its total_buffers is ignored.
/// Bit-identical to replay_io_cache run once per count.
///
/// A sliced pass (`slice` other than 0 of 1) simulates only the I/O nodes
/// the slice owns and ORs its request misses into `misses` instead of
/// counting request hits; merge the slices' block counters and read the
/// request hits off the mask (at most kMaxSlicedCapacities counts).
[[nodiscard]] std::vector<IoNodeSimResult> stack_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers, NodeSlice slice = {},
    RequestMisses* misses = nullptr);

/// The FIFO analogue of stack_io_group: one shared-hash pass over the op
/// stream covering every per-node buffer count (at most 16 of them).
/// `shape.policy` must be kFifo.  Bit-identical to replay_io_cache run once
/// per count.  Slices as stack_io_group does.
[[nodiscard]] std::vector<IoNodeSimResult> fifo_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers, NodeSlice slice = {},
    RequestMisses* misses = nullptr);

}  // namespace detail

}  // namespace charisma::cache
