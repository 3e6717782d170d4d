// Stand-alone layer probes for the benchmark's traced run.
//
// Each probe drives one layer's public functions directly over the study's
// own replay ops, outside the simulation, and reports a per-operation cost:
// what the layer costs per call with nothing else running.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/replay.hpp"

namespace charisma::perf {

/// The study's replay ops, decoded from its spill (memory tier, then the
/// disk frames) with detail::decode_ops.
struct CapturedOps {
  std::vector<cache::detail::ReplayOp> ops;  ///< the first `keep` ops
  std::uint64_t decoded = 0;                 ///< ops decoded in total
  std::int64_t decode_ns = 0;                ///< time inside decode_ops
};

/// Decodes every chunk of `spill` without consuming it.
[[nodiscard]] CapturedOps capture_ops(const cache::ReplayOpSpill& spill,
                                      std::size_t keep);

struct ProbeResults {
  double cfs_plan_ns = 0.0;            ///< FileSystem::plan_into per op
  double cfs_blocks_per_request = 0.0; ///< planned blocks per op
  double net_route_ns = 0.0;           ///< Hypercube::route_into per call
  double disk_submit_ns = 0.0;         ///< Disk::submit per call
  double block_cache_access_ns = 0.0;  ///< BlockCache::access per block
  double lru_stack_ns = 0.0;           ///< SegmentedLruStack::access per block
  /// Folds every probe's results, so no timed loop can be optimized away.
  std::uint64_t checksum = 0;
};

/// Runs every probe over `ops`; `seed` feeds the route probe's node pairs.
[[nodiscard]] ProbeResults run_probes(
    const std::vector<cache::detail::ReplayOp>& ops, std::uint64_t seed);

}  // namespace charisma::perf
