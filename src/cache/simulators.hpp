// The paper's trace-driven cache simulations.
//
//  * Compute-node simulation (Figure 8): per-node caches of one-block
//    read-only buffers with LRU replacement; a hit is a read fully
//    satisfied locally (no I/O-node message).  Reported as a CDF of
//    per-job hit rates.
//  * I/O-node simulation (Figure 9): 4 KB buffers split evenly over N I/O
//    nodes, LRU or FIFO (or our IP-aware policy, ablation B); files assumed
//    striped round-robin at one-block granularity.
//  * Combined simulation (§4.8): one-block compute-node buffers in front of
//    the I/O-node caches; measures how much intraprocess locality the
//    front caches strip from the I/O-node stream.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hpp"
#include "cache/replay.hpp"
#include "trace/postprocess.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {

using cfs::JobId;

namespace detail {

/// Materialized-path op builder: filters `trace` down to replayable data
/// requests with resolved read-only flags (the streaming path spills the
/// same stream through ReplayOpSink instead — see cache/replay.hpp).
[[nodiscard]] std::vector<ReplayOp> prepare_replay(
    const trace::SortedTrace& trace, const std::set<SessionKey>& read_only);

/// First and last file block a request touches.
struct BlockSpan {
  std::int64_t first;
  std::int64_t last;
};
[[nodiscard]] inline BlockSpan span_of(const ReplayOp& op, std::int64_t bs) {
  return {op.offset / bs,
          (op.offset + std::max<std::int64_t>(op.bytes, 1) - 1) / bs};
}

/// Runs a read through one node's front cache with the "fully satisfied
/// from the local buffer" rule: true when every block it touches was
/// resident before the request ran.  All blocks are looked up first, then
/// all are touched.  A one-touch read (ReplayLog::one_touch) cannot hit and
/// goes in as one run.
[[nodiscard]] bool serve_locally(BlockCache& cache, const ReplayOp& op,
                                 BlockSpan span, bool one_touch);

/// The part of a group pass one sweep work unit simulates: the nodes `n`
/// with `n % count == index`.  The swept caches are per node (one per I/O
/// node, one per compute node), so the slices of a pass split its work
/// exactly.  A serial runner runs every pass as slice 0 of 1.
struct NodeSlice {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  [[nodiscard]] bool owns(NodeId node) const noexcept {
    return static_cast<std::uint32_t>(node) % count == index;
  }
};

/// One slice's view of round-robin striping (block b lives on I/O node
/// b % io_nodes): the I/O nodes it owns, numbered by a dense local index,
/// and a walk over only the blocks that land on them:
///
///   for (auto w = stripes.start(first); w.block <= last;
///        w = stripes.next(w)) { ... caches[w.local] ... }
class SliceStripes {
 public:
  SliceStripes(int io_nodes, NodeSlice slice);

  /// An owned block, its I/O node and that node's local index.
  struct Walk {
    std::int64_t block = 0;
    std::size_t node = 0;
    std::size_t local = 0;
  };

  /// I/O nodes this slice owns; local indices run over [0, owned()).
  [[nodiscard]] std::size_t owned() const noexcept { return owned_; }
  /// Local index of the (owned) I/O node block `b` stripes to.
  [[nodiscard]] std::size_t local(std::int64_t b) const noexcept {
    return local_[static_cast<std::size_t>(b) % local_.size()];
  }

  /// How many of the blocks [first, last] stripe to the owned node with
  /// local index `local`: what a walk would reach there, without walking.
  [[nodiscard]] std::uint64_t count(std::size_t local, std::int64_t first,
                                    std::int64_t last) const noexcept {
    const std::size_t nodes = gap_.size();
    const auto total = static_cast<std::uint64_t>(last - first + 1);
    // Every node gets total / nodes; the `total % nodes` nodes from
    // first's own node on get one more.
    const std::size_t start = static_cast<std::size_t>(first) % nodes;
    const std::size_t node = node_[local];
    const std::size_t rank =
        node >= start ? node - start : node + nodes - start;
    return total / nodes + (rank < total % nodes ? 1 : 0);
  }

  /// The first owned block at or after `first`.
  [[nodiscard]] Walk start(std::int64_t first) const noexcept {
    return skip({first, static_cast<std::size_t>(first) % gap_.size(), 0});
  }
  /// The next owned block after `w`.
  [[nodiscard]] Walk next(Walk w) const noexcept {
    ++w.block;
    if (++w.node == gap_.size()) w.node = 0;
    return skip(w);
  }

 private:
  [[nodiscard]] Walk skip(Walk w) const noexcept {
    const std::size_t d = gap_[w.node];
    w.block += static_cast<std::int64_t>(d);
    w.node += d;
    if (w.node >= gap_.size()) w.node -= gap_.size();
    w.local = local_[w.node];
    return w;
  }

  std::vector<std::uint32_t> gap_;    // node -> distance to the next owned
  std::vector<std::uint32_t> local_;  // owned node -> dense local index
  std::vector<std::uint32_t> node_;   // dense local index -> owned node
  std::size_t owned_ = 0;
};

/// Most capacities one sliced pass can cover: the request miss mask below
/// has one bit per capacity.
inline constexpr std::size_t kMaxSlicedCapacities = 16;

/// Per-request miss bits shared by the slices of one sliced pass.  A
/// request hits a cache only when all its blocks hit, and its blocks may
/// stripe to I/O nodes in different slices, so no slice can decide alone:
/// each ORs in bit c when one of its blocks missed capacity c.  Every slice
/// replays the same request sequence (front caches included), so request r
/// is the same request in each.
class RequestMisses {
 public:
  explicit RequestMisses(std::size_t max_requests) : bits_(max_requests, 0) {}

  /// Safe to call concurrently from the slices of one pass.
  void add(std::uint64_t request, std::uint16_t miss) {
    if (miss == 0) return;
    std::atomic_ref<std::uint16_t>(bits_[static_cast<std::size_t>(request)])
        .fetch_or(miss, std::memory_order_relaxed);
  }

  /// Per capacity, the requests among the first `requests` with its bit
  /// clear.  Call once every slice has finished.
  [[nodiscard]] std::vector<std::uint64_t> hits(std::uint64_t requests,
                                                std::size_t capacities) const;

 private:
  std::vector<std::uint16_t> bits_;
};

/// (job, node) -> BlockCache with a memo of the last lookup: replay streams
/// are long runs of one node's requests, so most lookups hit the memo.
/// Shared by the per-config replays, the batched replays, and the stack
/// simulator's §4.8 front caches.
class PerNodeCaches {
 public:
  PerNodeCaches(std::size_t buffers, Policy policy)
      : buffers_(buffers), policy_(policy) {}

  BlockCache& at(JobId job, NodeId node) {
    if (last_ != nullptr && job == last_job_ && node == last_node_) {
      return *last_;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(job)) << 32) |
        static_cast<std::uint32_t>(node);
    const auto [it, inserted] = caches_.try_emplace(key, buffers_, policy_);
    last_job_ = job;
    last_node_ = node;
    last_ = &it->second;
    return *last_;
  }

 private:
  std::size_t buffers_;
  Policy policy_;
  // Keyed by packed (job, node); never iterated, so hash order is safe.
  std::unordered_map<std::uint64_t, BlockCache> caches_;
  JobId last_job_ = cfs::kNoJob;
  NodeId last_node_ = -1;
  BlockCache* last_ = nullptr;
};

}  // namespace detail

// ---- Figure 8 -------------------------------------------------------------

struct ComputeCacheConfig {
  std::size_t buffers_per_node = 1;
  std::int64_t block_size = util::kBlockSize;
};

/// hits / total as a fraction, 0 when there were no attempts.  The one
/// derivation every cache-simulation result and report line shares, so the
/// per-config and grouped paths cannot drift.
[[nodiscard]] constexpr double hit_fraction(std::uint64_t hits,
                                            std::uint64_t total) noexcept {
  return total ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
}

struct ComputeCacheResult {
  std::vector<double> job_hit_rates;  // jobs with >= 1 eligible read
  util::Cdf hit_rate_cdf;
  double fraction_jobs_zero = 0.0;
  double fraction_jobs_above_75 = 0.0;
  std::uint64_t reads = 0;
  std::uint64_t hits = 0;

  [[nodiscard]] double overall_hit_rate() const noexcept {
    return hit_fraction(hits, reads);
  }

  /// One-line counter summary (the perf harness's per-point lines).
  [[nodiscard]] std::string describe() const;
};

/// `read_only` restricts caching to read-only sessions, as the paper did
/// (write caching would need a consistency protocol).
[[nodiscard]] ComputeCacheResult simulate_compute_cache(
    const trace::SortedTrace& trace, const std::set<SessionKey>& read_only,
    const ComputeCacheConfig& config);

// ---- Figure 9 / §4.8 -------------------------------------------------------

struct IoNodeSimConfig {
  int io_nodes = 10;
  std::size_t total_buffers = 4000;  // split evenly over the I/O nodes
  Policy policy = Policy::kLru;
  std::int64_t block_size = util::kBlockSize;
  /// > 0 adds per-compute-node read-only front caches (§4.8).
  std::size_t compute_buffers_per_node = 0;
};

struct IoNodeSimResult {
  /// Requests reaching the I/O nodes; a request is a hit when every block
  /// it touches is already cached (it needs no disk I/O anywhere).
  std::uint64_t requests = 0;
  std::uint64_t request_hits = 0;
  std::uint64_t block_accesses = 0;
  std::uint64_t block_hits = 0;
  std::uint64_t filtered_by_compute = 0;  // requests absorbed up front
  double hit_rate = 0.0;        // request-level (the paper's Figure 9 axis)
  double block_hit_rate = 0.0;  // block-level, for the ablation commentary

  /// Derives hit_rate / block_hit_rate from the counters.  Every simulation
  /// path (per-config replay, batched replay, stack simulation) finishes
  /// through this one helper so the derived fields cannot drift.
  void finalize_rates() noexcept {
    hit_rate = hit_fraction(request_hits, requests);
    block_hit_rate = hit_fraction(block_hits, block_accesses);
  }

  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] IoNodeSimResult simulate_io_cache(
    const trace::SortedTrace& trace, const std::set<SessionKey>& read_only,
    const IoNodeSimConfig& config);

// ---- Parameter sweeps ------------------------------------------------------

/// One pass of a grouped sweep, for introspection: how many config slots it
/// covers and how many distinct cache points it actually simulates (configs
/// collapsing to the same per-node buffer count are deduplicated).
struct SweepGroup {
  enum class Kind : std::uint8_t {
    kStack,    ///< single-pass LRU stack simulation, all buffer counts at once
    kBatched,  ///< one decode pass stepping every config per record
    kReplay,   ///< plain per-config replay (group has one distinct point)
    /// Single-point topologies planned as one pass: several otherwise
    /// ungroupable shapes (distinct io_nodes / front / policy), each
    /// replayed as its own work units.  The displayed policy is the first
    /// folded member's.
    kMulti,
  };
  Kind kind = Kind::kReplay;
  Policy policy = Policy::kLru;
  std::size_t configs = 0;    ///< config slots this pass covers
  std::size_t simulated = 0;  ///< distinct cache points simulated in the pass
};

[[nodiscard]] constexpr const char* to_string(SweepGroup::Kind k) noexcept {
  switch (k) {
    case SweepGroup::Kind::kStack: return "stack";
    case SweepGroup::Kind::kBatched: return "batched";
    case SweepGroup::Kind::kReplay: return "replay";
    case SweepGroup::Kind::kMulti: return "multi";
  }
  return "?";
}

/// The grouped execution plan for a config batch — the sweep analogue of
/// SweepRunner::replay_ops(): how much work a grouped run actually does.
struct SweepPlan {
  std::vector<SweepGroup> groups;

  [[nodiscard]] std::size_t passes() const noexcept { return groups.size(); }
  [[nodiscard]] std::size_t configs() const noexcept;
  [[nodiscard]] std::size_t simulated_points() const noexcept;
  /// e.g. "28 configs in 8 passes: LRU/stack(11->9) FIFO/batched(9->9) ...".
  [[nodiscard]] std::string describe() const;
};

/// The plan run_compute / run_io execute.  Purely structural — no trace
/// needed.
[[nodiscard]] SweepPlan plan_compute_sweep(
    const std::vector<ComputeCacheConfig>& configs);
[[nodiscard]] SweepPlan plan_io_sweep(
    const std::vector<IoNodeSimConfig>& configs);

/// Runs cache-simulation sweeps over one immutable trace.  Results always
/// come back in configuration order, making the output invariant under the
/// pool's thread count — the sweep benches and the perf harness depend on
/// that.
///
/// The trace is pre-filtered once (detail::prepare_replay) so replays touch
/// only data requests and never repeat the read-only-session set lookups.
/// Configurations are grouped by (policy, topology, front-cache setting) and
/// each *group* is one planned pass — exact LRU stack simulation for every
/// buffer count at once (Mattson), batched replay stepping every config per
/// record for the non-inclusive policies.  Groups left with a single point
/// (the Figure 9 I/O-node-count spread, the §4.8 front singleton) are
/// planned as one multi-topology pass that replays each shape on its own.
/// Results are bit-identical to one simulate_compute_cache /
/// simulate_io_cache call per config (the differential tests enforce it).
/// Construction marks the log's one-touch ops (cache/replay.hpp), which the
/// LRU and FIFO kernels and the front caches replay as counted runs; the
/// per-config simulators never mark, so they step every block.
///
/// A pooled runner executes the planned passes as a flat list of work units:
/// each pass (each shape, for a kMulti pass) restricted to one node slice
/// (detail::NodeSlice).  An I/O pass splits into min(pool threads, io_nodes)
/// slices by I/O node, the Figure 8 stack pass into pool-thread slices by
/// compute node.  Every unit of a run_io / run_compute call fans out at
/// once, heaviest kind first (batched, then stack, then replays), so the
/// sweep is no longer bound by its largest pass.  The non-FIFO batched pass
/// and the Figure 8 single-point replay stay whole.
class SweepRunner {
 public:
  /// Serial runner: passes execute inline on the calling thread.  Both
  /// arguments are consumed at construction (the ops are copied out of
  /// `trace` with their read-only flags resolved); neither is kept.
  SweepRunner(const trace::SortedTrace& trace,
              const std::set<SessionKey>& read_only);
  /// Pooled runner: independent passes fan out over `pool`, which is
  /// borrowed and must outlive the runner.
  SweepRunner(const trace::SortedTrace& trace,
              const std::set<SessionKey>& read_only, util::ThreadPool& pool);
  /// Streaming runners: replay a spilled op file per pass instead of an
  /// in-memory op vector.  `read_only` is consumed at construction: the
  /// log's one decode pass resolves every op's read-only flag, so the set
  /// may be destroyed as soon as the runner exists.
  SweepRunner(ReplayOpSpill ops, const std::set<SessionKey>& read_only);
  SweepRunner(ReplayOpSpill ops, const std::set<SessionKey>& read_only,
              util::ThreadPool& pool);

  /// Figure 8 points, one result per config, in config order.
  [[nodiscard]] std::vector<ComputeCacheResult> run_compute(
      const std::vector<ComputeCacheConfig>& configs) const;
  /// Figure 9 / §4.8 points, one result per config, in config order.
  [[nodiscard]] std::vector<IoNodeSimResult> run_io(
      const std::vector<IoNodeSimConfig>& configs) const;

  [[nodiscard]] std::size_t replay_ops() const noexcept {
    return log_.size();
  }

  /// The replay log's one-touch marks: how many ops and what share of the
  /// block accesses the kernels replay as counted runs, and the host ms the
  /// marking took at construction.
  [[nodiscard]] const OneTouchStats& one_touch() const noexcept {
    return log_.one_touch_stats();
  }

  /// Disk bytes sweep passes have read back from the op spill's overflow
  /// file so far (zero for materialized runners and all-resident spills).
  [[nodiscard]] std::int64_t spill_bytes_read() const noexcept {
    return log_.spill_bytes_read();
  }

  /// Total trace passes this runner has executed across every run_compute /
  /// run_io call — the cost ledger the grouping claim rests on (fewer passes
  /// than configs).  Thread-safe: sweeps may run concurrently from pool
  /// threads.
  [[nodiscard]] std::size_t passes_executed() const;

 private:
  /// Runs body(u) for the work units u in [0, units): in order on a serial
  /// runner, else claimed in order by up to one lane per pool thread, so
  /// units listed heaviest first run longest-first.  Then bumps the
  /// passes_executed() ledger by `passes`.
  void run_units(std::size_t units, std::size_t passes,
                 const std::function<void(std::size_t)>& body) const;

  ReplayLog log_;
  util::ThreadPool* pool_ = nullptr;
  mutable util::Mutex mutex_;
  mutable std::size_t passes_executed_ CHARISMA_GUARDED_BY(mutex_) = 0;
};

}  // namespace charisma::cache
