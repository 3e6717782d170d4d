// Prefetching and write-behind extensions to the I/O-node cache simulation.
//
// The paper's related work (§2.3) leans on prefetching: Kotz & Ellis showed
// caching+prefetching works in multiprocessor file systems, and Miller &
// Katz — whose Cray workload did NOT benefit from caching — still "noticed
// a benefit from prefetching and write-behind".  These simulators quantify
// both on the CHARISMA trace:
//
//  * Prefetcher: on a miss of block b (by file), optionally fetches b+1..
//    b+depth into the cache ("one-block lookahead" generalized).  Useful
//    when access is sequential at the block level — which interleaved
//    sub-block requests are, in aggregate.
//  * Write-behind: dirty blocks are buffered and written back on eviction
//    instead of written through, coalescing the many small writes to one
//    block into one disk write (the paper's §4.8 motivation: "combine
//    several small requests into a few larger requests").
//
// Both replay the sweeps' op stream (cache/replay.hpp): the data requests
// of the postprocessed trace, in merge order, which is all either kernel
// reads.  They ignore the log's read-only and one-touch flags.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "cache/simulators.hpp"

namespace charisma::cache {

struct PrefetchConfig {
  int io_nodes = 10;
  std::size_t total_buffers = 4000;
  Policy policy = Policy::kLru;
  std::int64_t block_size = util::kBlockSize;
  /// Blocks fetched ahead on each miss (0 disables prefetching).
  int prefetch_depth = 0;
  /// Only prefetch when the previous access to the file was the block
  /// immediately before (sequential detector), instead of on every miss.
  bool sequential_detector = true;
};

struct PrefetchResult {
  std::uint64_t requests = 0;
  std::uint64_t request_hits = 0;
  std::uint64_t prefetches_issued = 0;   // extra disk fetches
  std::uint64_t prefetches_used = 0;     // later hit before eviction
  double hit_rate = 0.0;
  /// Fraction of issued prefetches that were used (accuracy).
  double prefetch_accuracy = 0.0;

  [[nodiscard]] std::string describe() const;
};

/// Replays the log's data requests through prefetching I/O-node caches.
[[nodiscard]] PrefetchResult simulate_prefetch(const ReplayLog& log,
                                               const PrefetchConfig& config);

struct WriteBehindConfig {
  int io_nodes = 10;
  /// Dirty write-buffer blocks per I/O node.
  std::size_t buffers_per_node = 50;
  std::int64_t block_size = util::kBlockSize;
};

struct WriteBehindResult {
  std::uint64_t write_requests = 0;
  std::uint64_t blocks_touched = 0;     // block-level write accesses
  std::uint64_t disk_writes_through = 0;  // write-through baseline
  std::uint64_t disk_writes_behind = 0;   // with coalescing
  /// Disk-write reduction from coalescing small writes per block.
  [[nodiscard]] double reduction() const noexcept {
    return disk_writes_through
               ? 1.0 - static_cast<double>(disk_writes_behind) /
                           static_cast<double>(disk_writes_through)
               : 0.0;
  }
  [[nodiscard]] std::string describe() const;
};

/// Replays the log's writes through per-I/O-node write-behind buffers.
[[nodiscard]] WriteBehindResult simulate_write_behind(
    const ReplayLog& log, const WriteBehindConfig& config);

}  // namespace charisma::cache
