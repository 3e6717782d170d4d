#include "cache/simulators.hpp"

#include <algorithm>
#include <bit>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "cache/stack_sim.hpp"
#include "util/check.hpp"

namespace charisma::cache {

using trace::EventKind;
using trace::Record;

namespace detail {

std::vector<ReplayOp> prepare_replay(const trace::SortedTrace& trace,
                                     const std::set<SessionKey>& read_only) {
  std::vector<ReplayOp> ops;
  ops.reserve(trace.records.size());
  // The read-only set is consulted per session, not per record: requests
  // arrive in bursts for the same (job, file), so one cached lookup covers
  // the common run.
  SessionKey last_key{cfs::kNoJob, cfs::kNoFile};
  bool last_read_only = false;
  for (const Record& r : trace.records) {
    const bool is_read = r.kind == EventKind::kRead;
    if ((!is_read && r.kind != EventKind::kWrite) || r.bytes <= 0) continue;
    const SessionKey key{r.job, r.file};
    if (key != last_key) {
      last_key = key;
      last_read_only = read_only.find(key) != read_only.end();
    }
    ops.push_back({r.file, r.job, r.node, r.offset, r.bytes, is_read,
                   last_read_only});
  }
  return ops;
}

bool serve_locally(BlockCache& cache, const ReplayOp& op, BlockSpan span,
                   bool one_touch) {
  if (one_touch) {
    cache.insert_run(static_cast<std::uint64_t>(span.last - span.first + 1));
    return false;
  }
  bool full_hit = true;
  for (std::int64_t b = span.first; b <= span.last; ++b) {
    if (!cache.contains({op.file, b})) {
      full_hit = false;
      break;
    }
  }
  for (std::int64_t b = span.first; b <= span.last; ++b) {
    (void)cache.access({op.file, b}, op.node);
  }
  return full_hit;
}

SliceStripes::SliceStripes(int io_nodes, NodeSlice slice) {
  util::check(io_nodes >= 1, "need at least one I/O node");
  CHECK(slice.count >= 1 && slice.index < slice.count &&
            slice.count <= static_cast<std::uint32_t>(io_nodes),
        "bad I/O-node slice ", slice.index, " of ", slice.count, " over ",
        io_nodes, " I/O nodes");
  const auto n = static_cast<std::uint32_t>(io_nodes);
  gap_.assign(n, 0);
  local_.assign(n, 0);
  for (std::uint32_t node = 0; node < n; ++node) {
    std::uint32_t d = 0;
    while (!slice.owns(static_cast<NodeId>((node + d) % n))) ++d;
    gap_[node] = d;
    if (d == 0) {
      local_[node] = static_cast<std::uint32_t>(owned_++);
      node_.push_back(node);
    }
  }
}

std::vector<std::uint64_t> RequestMisses::hits(std::uint64_t requests,
                                               std::size_t capacities) const {
  CHECK(requests <= bits_.size(), "miss mask sized for ", bits_.size(),
        " requests, asked for ", requests);
  std::vector<std::uint64_t> missed(capacities, 0);
  for (std::size_t r = 0; r < requests; ++r) {
    for (std::uint32_t m = bits_[r]; m != 0; m &= m - 1) {
      ++missed[static_cast<std::size_t>(std::countr_zero(m))];
    }
  }
  std::vector<std::uint64_t> out(capacities);
  for (std::size_t c = 0; c < capacities; ++c) out[c] = requests - missed[c];
  return out;
}

namespace {

ComputeCacheResult replay_compute_cache(const ReplayLog& ops,
                                        const ComputeCacheConfig& config) {
  util::check(config.block_size > 0, "bad block size");
  ComputeCacheResult out;
  // One cache per (job, node): node reuse across jobs must not leak blocks.
  PerNodeCaches caches(config.buffers_per_node, Policy::kLru);
  struct JobCount {
    std::uint64_t reads = 0;
    std::uint64_t hits = 0;
  };
  std::map<JobId, JobCount> per_job;

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  ops.for_each([&](const ReplayOp& op) {
    if (!op.is_read || !op.read_only_session) return;
    const bool full_hit =
        serve_locally(caches.at(op.job, op.node), op,
                      span_of(op, config.block_size),
                      ReplayLog::one_touch(op, config.block_size));
    auto& jc = per_job[op.job];
    ++jc.reads;
    ++out.reads;
    if (full_hit) {
      ++jc.hits;
      ++out.hits;
    }
  });

  for (const auto& [job, jc] : per_job) {
    const double rate = hit_fraction(jc.hits, jc.reads);
    out.job_hit_rates.push_back(rate);
    if (rate <= 0.0) out.fraction_jobs_zero += 1.0;
    if (rate > 0.75) out.fraction_jobs_above_75 += 1.0;
  }
  if (!out.job_hit_rates.empty()) {
    const auto n = static_cast<double>(out.job_hit_rates.size());
    out.fraction_jobs_zero /= n;
    out.fraction_jobs_above_75 /= n;
  }
  out.hit_rate_cdf = util::Cdf::from_samples(out.job_hit_rates);
  return out;
}

/// One slice of a single-point I/O-node replay.  A whole replay is slice 0
/// of 1; a sliced one counts every request but only its own I/O nodes'
/// blocks, and leaves request hits to `misses`.
IoNodeSimResult replay_io_cache(const ReplayLog& ops,
                                const IoNodeSimConfig& config,
                                NodeSlice slice = {},
                                RequestMisses* misses = nullptr) {
  util::check(config.block_size > 0, "bad block size");
  const SliceStripes stripes(config.io_nodes, slice);
  IoNodeSimResult out;

  const std::size_t per_node =
      config.total_buffers / static_cast<std::size_t>(config.io_nodes);
  std::vector<BlockCache> io_caches;
  io_caches.reserve(stripes.owned());
  for (std::size_t i = 0; i < stripes.owned(); ++i) {
    io_caches.emplace_back(per_node, config.policy);
  }
  PerNodeCaches compute(config.compute_buffers_per_node, Policy::kLru);

  // IP-aware eviction reads per-block accessor sets, so it never takes runs.
  const bool runs = config.policy != Policy::kInterprocessAware;

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  ops.for_each([&](const ReplayOp& op) {
    const BlockSpan span = span_of(op, config.block_size);
    const bool one_touch = ReplayLog::one_touch(op, config.block_size);
    if (config.compute_buffers_per_node > 0 && op.is_read &&
        op.read_only_session &&
        serve_locally(compute.at(op.job, op.node), op, span, one_touch)) {
      ++out.filtered_by_compute;
      return;  // never reaches the I/O nodes
    }

    // Round-robin striping at one-block granularity (paper §4.8).  The
    // request is "fully satisfied from the buffer" when every block it
    // touches is already cached (Figure 8's definition, applied here to
    // the I/O-node caches).
    const std::uint64_t request = out.requests++;
    bool full_hit = true;
    if (one_touch && runs) {
      // Every block misses: each owned node takes its share as one run.
      for (std::size_t local = 0; local < stripes.owned(); ++local) {
        const std::uint64_t n = stripes.count(local, span.first, span.last);
        if (n == 0) continue;
        io_caches[local].insert_run(n);
        out.block_accesses += n;
        full_hit = false;
      }
    } else {
      for (auto w = stripes.start(span.first); w.block <= span.last;
           w = stripes.next(w)) {
        ++out.block_accesses;
        if (io_caches[w.local].access({op.file, w.block}, op.node)) {
          ++out.block_hits;
        } else {
          full_hit = false;
        }
      }
    }
    if (misses != nullptr) {
      misses->add(request, full_hit ? 0 : 1);
    } else if (full_hit) {
      ++out.request_hits;
    }
  });
  out.finalize_rates();
  return out;
}

/// Folds the slices of one pass into its per-capacity results.  Block
/// counters add across slices.  Every slice counted the same requests and
/// front-cache filtering, so those come from slice 0, and so do the request
/// hits of a whole pass; a sliced pass takes them from its miss mask.
std::vector<IoNodeSimResult> merge_slices(
    std::vector<std::vector<IoNodeSimResult>> slices,
    const RequestMisses* misses) {
  std::vector<IoNodeSimResult> out = std::move(slices.at(0));
  for (std::size_t s = 1; s < slices.size(); ++s) {
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c].block_accesses += slices[s][c].block_accesses;
      out[c].block_hits += slices[s][c].block_hits;
    }
  }
  if (misses != nullptr && !out.empty()) {
    const std::vector<std::uint64_t> hits =
        misses->hits(out[0].requests, out.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      out[c].request_hits = hits[c];
    }
  }
  for (IoNodeSimResult& r : out) r.finalize_rates();
  return out;
}

/// Batched replay for the policies without an inclusion property (FIFO,
/// IP-aware): decode/filter the op stream once and step every config's cache
/// set per record, instead of one full pass per config.  `shape` supplies
/// the shared topology (io_nodes, block_size, front setting, policy);
/// `per_node_buffers` lists the distinct per-node buffer counts.  The §4.8
/// front caches are simulated once for the whole group — their capacity is
/// part of the group key, so every member sees the identical filtered
/// stream.
std::vector<IoNodeSimResult> batched_io_group(
    const ReplayLog& ops, const IoNodeSimConfig& shape,
    const std::vector<std::size_t>& per_node_buffers) {
  util::check(shape.io_nodes >= 1, "need at least one I/O node");
  util::check(shape.block_size > 0, "bad block size");
  const std::size_t n = per_node_buffers.size();
  const auto io_nodes = static_cast<std::size_t>(shape.io_nodes);

  std::vector<std::vector<BlockCache>> caches(n);
  for (std::size_t c = 0; c < n; ++c) {
    caches[c].reserve(io_nodes);
    for (std::size_t i = 0; i < io_nodes; ++i) {
      caches[c].emplace_back(per_node_buffers[c], shape.policy);
    }
  }
  PerNodeCaches front(shape.compute_buffers_per_node, Policy::kLru);
  std::vector<IoNodeSimResult> out(n);

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  ops.for_each([&](const ReplayOp& op) {
    const BlockSpan span = span_of(op, shape.block_size);
    if (shape.compute_buffers_per_node > 0 && op.is_read &&
        op.read_only_session &&
        serve_locally(front.at(op.job, op.node), op, span,
                      ReplayLog::one_touch(op, shape.block_size))) {
      for (std::size_t c = 0; c < n; ++c) ++out[c].filtered_by_compute;
      return;
    }

    for (std::size_t c = 0; c < n; ++c) {
      IoNodeSimResult& r = out[c];
      ++r.requests;
      bool full_hit = true;
      for (std::int64_t b = span.first; b <= span.last; ++b) {
        ++r.block_accesses;
        if (caches[c][static_cast<std::size_t>(b % shape.io_nodes)].access(
                {op.file, b}, op.node)) {
          ++r.block_hits;
        } else {
          full_hit = false;
        }
      }
      if (full_hit) ++r.request_hits;
    }
  });
  for (IoNodeSimResult& r : out) r.finalize_rates();
  return out;
}

// ---- Config grouping -------------------------------------------------------

/// Configs sharing a key replay the identical filtered stream through the
/// identical cache topology — only the buffer count differs — so one pass
/// can cover the whole group.
struct IoGroupKey {
  int io_nodes = 0;
  std::int64_t block_size = 0;
  std::size_t front = 0;
  Policy policy = Policy::kLru;
  bool operator==(const IoGroupKey&) const = default;
};

struct SweepGrouping {
  std::vector<std::size_t> members;     // config indices, input order
  std::vector<std::size_t> capacities;  // distinct buffer counts, ascending
  std::vector<std::size_t> member_point;  // member -> index into capacities
  Policy policy = Policy::kLru;
  /// A fused batch of replay singletons (fold_replay_singletons): one pass,
  /// several unrelated topologies.  `point_configs` then holds one
  /// representative config index per simulated point, and `capacities`
  /// carries the per-point buffer counts only for plan accounting.
  bool multi = false;
  std::vector<std::size_t> point_configs;

  [[nodiscard]] SweepGroup::Kind kind() const noexcept {
    if (multi) return SweepGroup::Kind::kMulti;
    if (capacities.size() <= 1) return SweepGroup::Kind::kReplay;
    return policy == Policy::kLru ? SweepGroup::Kind::kStack
                                  : SweepGroup::Kind::kBatched;
  }
};

/// Resolves each group's distinct capacities (sorted ascending) and maps
/// every member config to its point.
void finish_grouping(std::vector<SweepGrouping>& groups,
                     const std::vector<std::vector<std::size_t>>& raw_caps) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SweepGrouping& group = groups[g];
    group.capacities = raw_caps[g];
    std::sort(group.capacities.begin(), group.capacities.end());
    group.capacities.erase(
        std::unique(group.capacities.begin(), group.capacities.end()),
        group.capacities.end());
    group.member_point.reserve(group.members.size());
    for (const std::size_t cap : raw_caps[g]) {
      group.member_point.push_back(static_cast<std::size_t>(
          std::lower_bound(group.capacities.begin(), group.capacities.end(),
                           cap) -
          group.capacities.begin()));
    }
  }
}

std::vector<SweepGrouping> group_compute(
    const std::vector<ComputeCacheConfig>& configs) {
  std::vector<SweepGrouping> groups;
  std::vector<std::int64_t> keys;                 // block size per group
  std::vector<std::vector<std::size_t>> raw_caps; // member capacities
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ComputeCacheConfig& c = configs[i];
    std::size_t g = 0;
    while (g < groups.size() && keys[g] != c.block_size) ++g;
    if (g == groups.size()) {
      groups.emplace_back();
      groups.back().policy = Policy::kLru;  // fig 8 is LRU by definition
      keys.push_back(c.block_size);
      raw_caps.emplace_back();
    }
    groups[g].members.push_back(i);
    raw_caps[g].push_back(c.buffers_per_node);
  }
  finish_grouping(groups, raw_caps);
  return groups;
}

/// Fuses the kReplay leftovers — groups that ended up with a single distinct
/// point, so grouping bought them nothing — into one kMulti pass in the
/// plan and the passes_executed() ledger.  Each shape still replays on its
/// own, as its own work units.  Fewer than two singletons means there is
/// nothing to fuse.
std::vector<SweepGrouping> fold_replay_singletons(
    std::vector<SweepGrouping> groups,
    const std::vector<IoNodeSimConfig>& configs) {
  std::size_t singletons = 0;
  for (const SweepGrouping& g : groups) {
    if (g.kind() == SweepGroup::Kind::kReplay) ++singletons;
  }
  if (singletons < 2) return groups;

  std::vector<SweepGrouping> out;
  out.reserve(groups.size() - singletons + 1);
  SweepGrouping fused;
  fused.multi = true;
  for (SweepGrouping& g : groups) {
    if (g.kind() != SweepGroup::Kind::kReplay) {
      out.push_back(std::move(g));
      continue;
    }
    const std::size_t point = fused.point_configs.size();
    // Policies may differ across the fused shapes; the plan displays the
    // first one (SweepGroup::Kind::kMulti docs).
    if (point == 0) fused.policy = configs[g.members.front()].policy;
    fused.point_configs.push_back(g.members.front());
    // One capacity entry per point (duplicates allowed): for kMulti the
    // vector is plan accounting, not a deduplicated axis.
    fused.capacities.push_back(g.capacities.front());
    for (const std::size_t m : g.members) {
      fused.members.push_back(m);
      fused.member_point.push_back(point);
    }
  }
  out.push_back(std::move(fused));
  return out;
}

std::vector<SweepGrouping> group_io(
    const std::vector<IoNodeSimConfig>& configs) {
  std::vector<SweepGrouping> groups;
  std::vector<IoGroupKey> keys;
  std::vector<std::vector<std::size_t>> raw_caps;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const IoNodeSimConfig& c = configs[i];
    const IoGroupKey key{c.io_nodes, c.block_size,
                         c.compute_buffers_per_node, c.policy};
    std::size_t g = 0;
    while (g < groups.size() && !(keys[g] == key)) ++g;
    if (g == groups.size()) {
      groups.emplace_back();
      groups.back().policy = c.policy;
      keys.push_back(key);
      raw_caps.emplace_back();
    }
    groups[g].members.push_back(i);
    raw_caps[g].push_back(c.total_buffers /
                          static_cast<std::size_t>(c.io_nodes));
  }
  finish_grouping(groups, raw_caps);
  return fold_replay_singletons(std::move(groups), configs);
}

SweepPlan plan_of(const std::vector<SweepGrouping>& groups) {
  SweepPlan plan;
  plan.groups.reserve(groups.size());
  for (const SweepGrouping& g : groups) {
    plan.groups.push_back(
        {g.kind(), g.policy, g.members.size(), g.capacities.size()});
  }
  return plan;
}

}  // namespace
}  // namespace detail

ComputeCacheResult simulate_compute_cache(const trace::SortedTrace& trace,
                                          const std::set<SessionKey>& read_only,
                                          const ComputeCacheConfig& config) {
  return detail::replay_compute_cache(
      ReplayLog(detail::prepare_replay(trace, read_only)), config);
}

IoNodeSimResult simulate_io_cache(const trace::SortedTrace& trace,
                                  const std::set<SessionKey>& read_only,
                                  const IoNodeSimConfig& config) {
  return detail::replay_io_cache(
      ReplayLog(detail::prepare_replay(trace, read_only)), config);
}

// ---- Sweep plan ------------------------------------------------------------

std::size_t SweepPlan::configs() const noexcept {
  std::size_t n = 0;
  for (const SweepGroup& g : groups) n += g.configs;
  return n;
}

std::size_t SweepPlan::simulated_points() const noexcept {
  std::size_t n = 0;
  for (const SweepGroup& g : groups) n += g.simulated;
  return n;
}

std::string SweepPlan::describe() const {
  std::ostringstream s;
  s << configs() << " configs in " << passes()
    << (passes() == 1 ? " pass:" : " passes:");
  for (const SweepGroup& g : groups) {
    s << " " << to_string(g.policy) << "/" << to_string(g.kind) << "("
      << g.configs << "->" << g.simulated << ")";
  }
  return s.str();
}

SweepPlan plan_compute_sweep(const std::vector<ComputeCacheConfig>& configs) {
  return detail::plan_of(detail::group_compute(configs));
}

SweepPlan plan_io_sweep(const std::vector<IoNodeSimConfig>& configs) {
  return detail::plan_of(detail::group_io(configs));
}

// ---- SweepRunner -----------------------------------------------------------

SweepRunner::SweepRunner(const trace::SortedTrace& trace,
                         const std::set<SessionKey>& read_only)
    : log_(detail::prepare_replay(trace, read_only)) {
  log_.mark_one_touch();
}

SweepRunner::SweepRunner(const trace::SortedTrace& trace,
                         const std::set<SessionKey>& read_only,
                         util::ThreadPool& pool)
    : log_(detail::prepare_replay(trace, read_only)), pool_(&pool) {
  log_.mark_one_touch();
}

SweepRunner::SweepRunner(ReplayOpSpill ops,
                         const std::set<SessionKey>& read_only)
    : log_(std::move(ops), read_only) {}

SweepRunner::SweepRunner(ReplayOpSpill ops,
                         const std::set<SessionKey>& read_only,
                         util::ThreadPool& pool)
    : log_(std::move(ops), read_only), pool_(&pool) {}

void SweepRunner::run_units(
    std::size_t units, std::size_t passes,
    const std::function<void(std::size_t)>& body) const {
  if (pool_ == nullptr) {
    for (std::size_t u = 0; u < units; ++u) body(u);
  } else {
    const std::size_t lanes = std::min(units, pool_->thread_count());
    std::atomic<std::size_t> next{0};
    util::parallel_for(*pool_, lanes, [&next, units, &body](std::size_t) {
      for (std::size_t u = next++; u < units; u = next++) body(u);
    });
  }
  const util::MutexLock lock(mutex_);
  passes_executed_ += passes;
}

std::size_t SweepRunner::passes_executed() const {
  const util::MutexLock lock(mutex_);
  return passes_executed_;
}

namespace {

/// One replay a grouped run executes: a planned group, or one shape of a
/// kMulti group, split into `slices` work units.
template <typename Result>
struct SlicedReplay {
  std::size_t group = 0;
  std::size_t config = 0;  // the shape (and, for a single point, the point)
  SweepGroup::Kind kind = SweepGroup::Kind::kReplay;
  std::uint32_t slices = 1;
  std::unique_ptr<detail::RequestMisses> misses;  // sliced I/O passes only
  std::vector<Result> parts;                      // one per slice
};

/// Work-unit order: heaviest kind first (batched, then stack, then
/// replays), and within a kind the less-sliced passes, whose units each
/// carry a larger share of their pass.
constexpr int unit_rank(SweepGroup::Kind kind) noexcept {
  switch (kind) {
    case SweepGroup::Kind::kBatched: return 0;
    case SweepGroup::Kind::kStack: return 1;
    case SweepGroup::Kind::kReplay:
    case SweepGroup::Kind::kMulti: return 2;
  }
  return 3;
}

struct Unit {
  std::size_t replay = 0;
  std::uint32_t slice = 0;
};

template <typename Result>
std::vector<Unit> units_of(const std::vector<SlicedReplay<Result>>& replays) {
  std::vector<Unit> units;
  for (std::size_t r = 0; r < replays.size(); ++r) {
    for (std::uint32_t u = 0; u < replays[r].slices; ++u) {
      units.push_back({r, u});
    }
  }
  std::stable_sort(units.begin(), units.end(),
                   [&](const Unit& a, const Unit& b) {
                     const auto& ra = replays[a.replay];
                     const auto& rb = replays[b.replay];
                     return std::pair(unit_rank(ra.kind), ra.slices) <
                            std::pair(unit_rank(rb.kind), rb.slices);
                   });
  return units;
}

}  // namespace

std::vector<ComputeCacheResult> SweepRunner::run_compute(
    const std::vector<ComputeCacheConfig>& configs) const {
  std::vector<ComputeCacheResult> results(configs.size());
  const auto groups = detail::group_compute(configs);
  // The stack pass slices by compute node; a single point replays whole.
  const auto slices = static_cast<std::uint32_t>(
      pool_ == nullptr ? 1 : pool_->thread_count());
  std::vector<SlicedReplay<detail::ComputeBuckets>> replays(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    replays[g].group = g;
    replays[g].config = groups[g].members.front();
    replays[g].kind = groups[g].kind();
    if (replays[g].kind == SweepGroup::Kind::kStack) replays[g].slices = slices;
    replays[g].parts.resize(replays[g].slices);
  }
  const std::vector<Unit> units = units_of(replays);
  std::vector<ComputeCacheResult> singles(groups.size());
  // Audited: each unit writes only its own part slot (or its group's
  // single-point slot).
  // NOLINTNEXTLINE(charisma-shared-capture)
  run_units(units.size(), groups.size(), [&](std::size_t i) {
    auto& replay = replays[units[i].replay];
    const ComputeCacheConfig& config = configs[replay.config];
    if (replay.kind == SweepGroup::Kind::kStack) {
      replay.parts[units[i].slice] = detail::stack_compute_slice(
          log_, config.block_size, groups[replay.group].capacities,
          {units[i].slice, replay.slices});
    } else {
      singles[replay.group] = detail::replay_compute_cache(log_, config);
    }
  });
  // Results land in slots keyed by the original config index, so the output
  // order is the input order for any pool thread count.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    std::vector<ComputeCacheResult> points;
    if (replays[g].kind == SweepGroup::Kind::kStack) {
      points = detail::finish_compute_slices(std::move(replays[g].parts),
                                             group.capacities.size());
    } else {
      points.push_back(std::move(singles[g]));
    }
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      results[group.members[m]] = points[group.member_point[m]];
    }
  }
  return results;
}

std::vector<IoNodeSimResult> SweepRunner::run_io(
    const std::vector<IoNodeSimConfig>& configs) const {
  std::vector<IoNodeSimResult> results(configs.size());
  const auto groups = detail::group_io(configs);
  // One replay per group, one per shape of a kMulti group.  An I/O pass
  // splits by I/O node into min(pool threads, io_nodes) slices, unless it
  // steps more capacities than the miss mask holds or runs the generic
  // batched replay (stateful IP-aware eviction, or FIFO past 16 points).
  const std::size_t threads = pool_ == nullptr ? 1 : pool_->thread_count();
  std::vector<SlicedReplay<std::vector<IoNodeSimResult>>> replays;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    const bool multi = group.kind() == SweepGroup::Kind::kMulti;
    for (const std::size_t config :
         multi ? group.point_configs
               : std::vector<std::size_t>{group.members.front()}) {
      auto& replay = replays.emplace_back();
      replay.group = g;
      replay.config = config;
      replay.kind = multi ? SweepGroup::Kind::kReplay : group.kind();
      const IoNodeSimConfig& shape = configs[config];
      const std::size_t points = replay.kind == SweepGroup::Kind::kReplay
                                     ? 1
                                     : group.capacities.size();
      const bool whole = points > detail::kMaxSlicedCapacities ||
                         (replay.kind == SweepGroup::Kind::kBatched &&
                          shape.policy != Policy::kFifo);
      if (!whole && shape.io_nodes >= 1) {
        replay.slices = static_cast<std::uint32_t>(
            std::min(threads, static_cast<std::size_t>(shape.io_nodes)));
      }
      if (replay.slices > 1) {
        replay.misses = std::make_unique<detail::RequestMisses>(log_.size());
      }
      replay.parts.resize(replay.slices);
    }
  }
  const std::vector<Unit> units = units_of(replays);
  // Audited: each unit writes only its own part slot; the slices of one
  // pass share its miss mask through atomic ORs.
  // NOLINTNEXTLINE(charisma-shared-capture)
  run_units(units.size(), groups.size(), [&](std::size_t i) {
    auto& replay = replays[units[i].replay];
    const IoNodeSimConfig& shape = configs[replay.config];
    const std::vector<std::size_t>& capacities =
        groups[replay.group].capacities;
    const detail::NodeSlice slice{units[i].slice, replay.slices};
    auto& part = replay.parts[units[i].slice];
    switch (replay.kind) {
      case SweepGroup::Kind::kStack:
        part = detail::stack_io_group(log_, shape, capacities, slice,
                                      replay.misses.get());
        break;
      case SweepGroup::Kind::kBatched:
        // FIFO gets the shared-hash single pass; other non-inclusive
        // policies (IP-aware eviction is stateful) step real caches.
        part = shape.policy == Policy::kFifo &&
                       capacities.size() <= detail::kMaxSlicedCapacities
                   ? detail::fifo_io_group(log_, shape, capacities, slice,
                                           replay.misses.get())
                   : detail::batched_io_group(log_, shape, capacities);
        break;
      case SweepGroup::Kind::kReplay:
      case SweepGroup::Kind::kMulti:
        part = {detail::replay_io_cache(log_, shape, slice,
                                        replay.misses.get())};
        break;
    }
  });
  // A kMulti group's shapes were listed in point order, so appending each
  // replay's points rebuilds every group's point vector.
  std::vector<std::vector<IoNodeSimResult>> points(groups.size());
  for (auto& replay : replays) {
    for (IoNodeSimResult& r : detail::merge_slices(std::move(replay.parts),
                                                   replay.misses.get())) {
      points[replay.group].push_back(std::move(r));
    }
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& group = groups[g];
    for (std::size_t m = 0; m < group.members.size(); ++m) {
      results[group.members[m]] = points[g][group.member_point[m]];
    }
  }
  return results;
}

std::string ComputeCacheResult::describe() const {
  std::ostringstream s;
  s << "reads=" << reads << " hits=" << hits << " hit_rate="
    << overall_hit_rate() << " jobs=" << job_hit_rates.size() << " zero="
    << fraction_jobs_zero << " above75=" << fraction_jobs_above_75;
  return s.str();
}

std::string IoNodeSimResult::describe() const {
  std::ostringstream s;
  s << "requests=" << requests << " hits=" << request_hits << " hit_rate="
    << hit_rate << " block_hit_rate=" << block_hit_rate;
  if (filtered_by_compute > 0) {
    s << " filtered=" << filtered_by_compute;
  }
  return s.str();
}

}  // namespace charisma::cache
