// Slice invariance of the grouped sweep.  A pooled SweepRunner splits every
// planned pass into node slices (detail::NodeSlice) and runs the slices as
// separate work units that share one request miss mask per pass.  Every
// result must still equal the per-config reference bit for bit at pool
// sizes 3 and 4, neither of which divides the 10 I/O nodes, for in-memory
// and disk-backed op logs alike.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/replay.hpp"
#include "cache/simulators.hpp"
#include "trace/spill.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {
namespace {

using trace::EventKind;

// Jumps to unaligned offsets with requests of up to ~5 blocks, so one
// request's blocks stripe to I/O nodes in different slices, mixed with
// small sequential reads that the one-buffer front caches absorb.  A small
// block range keeps the I/O-node caches hitting.
std::vector<trace::Record> records() {
  std::vector<trace::Record> out;
  util::Rng rng(23);
  for (int i = 0; i < 12000; ++i) {
    trace::Record r;
    if (!out.empty() && rng.chance(0.5)) {
      r = out.back();  // the same rank reads on from where it stopped
      r.kind = EventKind::kRead;
      r.offset += r.bytes;
      r.bytes = static_cast<std::int64_t>(1 + rng.uniform(512));
    } else {
      r.kind = rng.chance(0.2) ? EventKind::kWrite : EventKind::kRead;
      r.job = static_cast<cfs::JobId>(1 + rng.uniform(3));
      r.node = static_cast<cfs::NodeId>(rng.uniform(12));
      r.file = static_cast<cfs::FileId>(1 + rng.uniform(5));
      r.offset = static_cast<std::int64_t>(rng.uniform(300 * 4096));
      r.bytes = static_cast<std::int64_t>(1 + rng.uniform(5 * 4096));
    }
    out.push_back(r);
  }
  return out;
}

std::set<SessionKey> read_only() {
  std::set<SessionKey> ro;
  for (cfs::JobId job = 1; job <= 3; ++job) {
    for (cfs::FileId file = 1; file <= 3; ++file) ro.emplace(job, file);
  }
  return ro;
}

IoNodeSimConfig io_config(std::size_t total, Policy policy, int io_nodes,
                          std::size_t front) {
  IoNodeSimConfig c;
  c.total_buffers = total;
  c.policy = policy;
  c.io_nodes = io_nodes;
  c.compute_buffers_per_node = front;
  return c;
}

// An LRU stack group and a FIFO group, both behind one-buffer front caches
// and each with a zero-buffer point (5 buffers over 10 I/O nodes), plus
// three single points that plan as one kMulti pass: io_nodes = 1 (cannot
// slice), io_nodes = 3 and a zero-buffer LRU point without front caches.
std::vector<IoNodeSimConfig> io_configs() {
  std::vector<IoNodeSimConfig> configs;
  for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
    for (const std::size_t total : {5u, 100u, 400u, 1600u}) {
      configs.push_back(io_config(total, policy, 10, 1));
    }
  }
  configs.push_back(io_config(300, Policy::kLru, 1, 0));
  configs.push_back(io_config(300, Policy::kFifo, 3, 0));
  configs.push_back(io_config(5, Policy::kLru, 10, 0));
  return configs;
}

// The Figure 8 stack pass, zero-buffer point included.
std::vector<ComputeCacheConfig> compute_configs() {
  std::vector<ComputeCacheConfig> configs;
  for (const std::size_t buffers : {0u, 1u, 4u, 16u}) {
    ComputeCacheConfig c;
    c.buffers_per_node = buffers;
    configs.push_back(c);
  }
  return configs;
}

trace::SortedTrace sorted_trace() {
  trace::SortedTrace t;
  t.records = records();
  return t;
}

/// The same ops spilled with a zero memory budget: every chunk goes to the
/// disk tier and each work unit re-reads it.
ReplayOpSpill disk_spill() {
  trace::SpillBudget budget(0);
  ReplayOpSinkOptions options;
  options.budget = &budget;
  ReplayOpSink sink(options);
  for (const trace::Record& r : records()) sink.on_record(r);
  return sink.finish();
}

void expect_same(const ComputeCacheResult& want, const ComputeCacheResult& got,
                 std::size_t config) {
  SCOPED_TRACE("compute config " + std::to_string(config));
  EXPECT_EQ(want.reads, got.reads);
  EXPECT_EQ(want.hits, got.hits);
  EXPECT_EQ(want.job_hit_rates, got.job_hit_rates);
  EXPECT_EQ(want.describe(), got.describe());
}

void expect_same(const IoNodeSimResult& want, const IoNodeSimResult& got,
                 std::size_t config) {
  SCOPED_TRACE("io config " + std::to_string(config));
  EXPECT_EQ(want.requests, got.requests);
  EXPECT_EQ(want.request_hits, got.request_hits);
  EXPECT_EQ(want.block_accesses, got.block_accesses);
  EXPECT_EQ(want.block_hits, got.block_hits);
  EXPECT_EQ(want.filtered_by_compute, got.filtered_by_compute);
  EXPECT_EQ(want.hit_rate, got.hit_rate);
  EXPECT_EQ(want.block_hit_rate, got.block_hit_rate);
}

struct Reference {
  std::vector<ComputeCacheResult> compute;
  std::vector<IoNodeSimResult> io;
};

const Reference& reference() {
  static const Reference ref = [] {
    const trace::SortedTrace trace = sorted_trace();
    const std::set<SessionKey> ro = read_only();
    Reference ref;
    for (const ComputeCacheConfig& config : compute_configs()) {
      ref.compute.push_back(simulate_compute_cache(trace, ro, config));
    }
    for (const IoNodeSimConfig& config : io_configs()) {
      ref.io.push_back(simulate_io_cache(trace, ro, config));
    }
    return ref;
  }();
  return ref;
}

void expect_matches_reference(const SweepRunner& runner) {
  const Reference& ref = reference();
  const auto compute = runner.run_compute(compute_configs());
  ASSERT_EQ(compute.size(), ref.compute.size());
  for (std::size_t i = 0; i < compute.size(); ++i) {
    expect_same(ref.compute[i], compute[i], i);
  }
  const auto io = runner.run_io(io_configs());
  ASSERT_EQ(io.size(), ref.io.size());
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(ref.io[i], io[i], i);
  }
}

TEST(SweepSlices, PlanHasTheShapesUnderTest) {
  const SweepPlan plan = plan_io_sweep(io_configs());
  ASSERT_EQ(plan.passes(), 3u);
  EXPECT_EQ(plan.groups[0].kind, SweepGroup::Kind::kStack);
  EXPECT_EQ(plan.groups[1].kind, SweepGroup::Kind::kBatched);
  EXPECT_EQ(plan.groups[2].kind, SweepGroup::Kind::kMulti);
  EXPECT_EQ(plan.groups[2].simulated, 3u);
  // The reference really exercises the front caches and the zero points.
  const Reference& ref = reference();
  EXPECT_GT(ref.io[1].filtered_by_compute, 0u);
  EXPECT_EQ(ref.io[0].block_hits, 0u);
  EXPECT_GT(ref.io[3].request_hits, 0u);
  EXPECT_GT(ref.io[7].request_hits, 0u);
}

TEST(SweepSlices, InMemoryLogMatchesPerConfigAtThreeAndFourThreads) {
  const trace::SortedTrace trace = sorted_trace();
  const std::set<SessionKey> ro = read_only();
  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    const SweepRunner runner(trace, ro, pool);
    expect_matches_reference(runner);
    EXPECT_EQ(runner.passes_executed(),
              plan_compute_sweep(compute_configs()).passes() +
                  plan_io_sweep(io_configs()).passes());
  }
}

TEST(SweepSlices, DiskBackedLogMatchesPerConfigAtThreeAndFourThreads) {
  const std::set<SessionKey> ro = read_only();
  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    ReplayOpSpill spill = disk_spill();
    ASSERT_EQ(spill.mem_chunks().size(), 0u);
    ASSERT_GT(spill.disk_chunks(), 0u);
    const SweepRunner runner(std::move(spill), ro, pool);
    const std::int64_t construction_bytes = runner.spill_bytes_read();
    expect_matches_reference(runner);
    EXPECT_GT(runner.spill_bytes_read(), construction_bytes);
  }
}

TEST(SweepSlices, StripesPartitionEveryRequest) {
  // Over 10 I/O nodes, the slices of 1..10 each own a disjoint set of
  // nodes, and together they visit every block of a request exactly once,
  // each in block order, with dense local indices; count() agrees with the
  // walk per node.
  for (std::uint32_t count = 1; count <= 10; ++count) {
    std::vector<int> visits(64, 0);
    std::size_t owned = 0;
    for (std::uint32_t index = 0; index < count; ++index) {
      const detail::SliceStripes stripes(10, {index, count});
      owned += stripes.owned();
      std::int64_t prev = -1;
      std::vector<std::uint64_t> per_local(stripes.owned(), 0);
      for (auto w = stripes.start(3); w.block <= 60; w = stripes.next(w)) {
        ++per_local[w.local];
        EXPECT_GT(w.block, prev);
        prev = w.block;
        EXPECT_EQ(static_cast<std::uint32_t>(w.block % 10) % count, index);
        EXPECT_EQ(w.node, static_cast<std::size_t>(w.block % 10));
        EXPECT_EQ(w.local, stripes.local(w.block));
        EXPECT_LT(w.local, stripes.owned());
        ++visits[static_cast<std::size_t>(w.block)];
      }
      // count() gives each owned node's share without walking.
      for (std::size_t local = 0; local < stripes.owned(); ++local) {
        EXPECT_EQ(stripes.count(local, 3, 60), per_local[local])
            << "local " << local << ", " << count << " slices";
      }
    }
    EXPECT_EQ(owned, 10u) << count << " slices";
    for (std::size_t b = 0; b < visits.size(); ++b) {
      EXPECT_EQ(visits[b], b >= 3 && b <= 60 ? 1 : 0)
          << "block " << b << ", " << count << " slices";
    }
  }
}

}  // namespace
}  // namespace charisma::cache
