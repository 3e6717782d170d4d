// One-touch ops: the marking scan and the counted-run kernels.
//
// OneTouch.* checks ReplayLog's marks against a brute-force count of the
// ops touching every (file, block) key, on hand-built logs that hit each
// branch of the scan, in memory and disk-backed.  OneTouchRuns.* checks
// the kernels' premise: inserting a run of n blocks leaves a cache in the
// same observable state as n accesses to fresh keys.  The sweep test at the
// end replays a log full of runs next to reused blocks through the grouped
// runner and compares it with the per-config simulators, which never mark
// ops and so step every block.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/replay.hpp"
#include "cache/simulators.hpp"
#include "cache/stack_sim.hpp"
#include "support/replay_spill.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace charisma::cache {
namespace {

using detail::ReplayOp;
using trace::EventKind;

constexpr std::int64_t kBlock = util::kBlockSize;

/// A write of `blocks` whole blocks of `file`, starting at block `first`.
ReplayOp op(FileId file, std::int64_t first, std::int64_t blocks) {
  ReplayOp o;
  o.file = file;
  o.job = 1;
  o.node = 0;
  o.offset = first * kBlock;
  o.bytes = blocks * kBlock;
  return o;
}

std::vector<bool> brute_force(const std::vector<ReplayOp>& ops) {
  std::unordered_map<BlockKey, std::uint32_t, BlockKeyHash> touches;
  for (const ReplayOp& o : ops) {
    const detail::BlockSpan span = detail::span_of(o, kBlock);
    for (std::int64_t b = span.first; b <= span.last; ++b) {
      ++touches[{o.file, b}];
    }
  }
  std::vector<bool> out;
  for (const ReplayOp& o : ops) {
    const detail::BlockSpan span = detail::span_of(o, kBlock);
    bool once = true;
    for (std::int64_t b = span.first; b <= span.last && once; ++b) {
      once = touches[{o.file, b}] == 1;
    }
    out.push_back(once);
  }
  return out;
}

std::vector<bool> marks(const ReplayLog& log) {
  std::vector<bool> out;
  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  log.for_each([&out](const ReplayOp& o) { out.push_back(o.one_touch); });
  return out;
}

std::vector<bool> marks_in_memory(const std::vector<ReplayOp>& ops) {
  ReplayLog log(ops);
  log.mark_one_touch();
  return marks(log);
}

/// Marks the log, checks them against the brute force and returns them.
std::vector<bool> checked_marks(const std::vector<ReplayOp>& ops) {
  const std::vector<bool> got = marks_in_memory(ops);
  EXPECT_EQ(got, brute_force(ops));
  return got;
}

TEST(OneTouch, UnmarkedLogCarriesNoMarks) {
  const ReplayLog log(std::vector<ReplayOp>{op(1, 0, 4), op(2, 0, 4)});
  EXPECT_EQ(marks(log), (std::vector<bool>{false, false}));
  EXPECT_EQ(log.one_touch_stats().ops, 0u);
}

TEST(OneTouch, BigOpReTouchedLaterByAOneBlockOp) {
  // The 64-block op is a candidate until op 3 reads one block inside it.
  EXPECT_EQ(checked_marks({op(1, 0, 64), op(1, 64, 8), op(1, 200, 1),
                           op(1, 31, 1)}),
            (std::vector<bool>{false, true, true, false}));
}

TEST(OneTouch, BigOpOverlappingAnEarlierOp) {
  // Op 2 straddles ops 0 and 1 and the gap between them: all three lose
  // their marks; op 3 lands in a gap of the union and keeps its own.
  EXPECT_EQ(checked_marks({op(1, 10, 5), op(1, 30, 5), op(1, 12, 20),
                           op(1, 40, 2), op(1, 0, 3)}),
            (std::vector<bool>{false, false, false, true, true}));
}

TEST(OneTouch, AdjacentOpsDoNotOverlap) {
  // Touching end to end merges the union's ranges but shares no block.
  EXPECT_EQ(checked_marks({op(1, 8, 8), op(1, 0, 8), op(1, 16, 8),
                           op(1, 4, 1)}),
            (std::vector<bool>{true, false, true, false}));
}

TEST(OneTouch, SameBlockNumbersInTwoFiles) {
  EXPECT_EQ(checked_marks({op(1, 0, 16), op(2, 0, 16), op(3, 5, 1),
                           op(2, 15, 1)}),
            (std::vector<bool>{true, false, true, false}));
}

TEST(OneTouch, SubBlockRequestsShareTheirBlock) {
  // Two 100-byte reads in one block touch the same key.
  ReplayOp a = op(1, 0, 1);
  a.bytes = 100;
  ReplayOp b = a;
  b.offset = 2000;
  ReplayOp c = a;
  c.offset = 5000;  // block 1
  EXPECT_EQ(checked_marks({a, b, c}), (std::vector<bool>{false, false, true}));
}

/// A long random log over a few files: sequential appends, re-reads of
/// earlier ranges, and jumps into fresh regions.
std::vector<ReplayOp> random_log(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ReplayOp> ops;
  std::vector<std::int64_t> end(6, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto file = static_cast<FileId>(rng.uniform(6));
    const auto blocks = static_cast<std::int64_t>(1 + rng.uniform(12));
    std::int64_t first = 0;
    const double r = rng.uniform01();
    if (r < 0.4) {
      first = end[static_cast<std::size_t>(file)];  // append
    } else if (r < 0.8) {
      first = static_cast<std::int64_t>(  // re-read near earlier data
          rng.uniform(static_cast<std::uint64_t>(
              end[static_cast<std::size_t>(file)] + 1)));
    } else {
      first = end[static_cast<std::size_t>(file)] +  // jump past a gap
              static_cast<std::int64_t>(rng.uniform(64));
    }
    ReplayOp o = op(file, first, blocks);
    o.offset += static_cast<std::int64_t>(rng.uniform(kBlock));  // unaligned
    o.is_read = rng.chance(0.6);
    ops.push_back(o);
    auto& e = end[static_cast<std::size_t>(file)];
    e = std::max(e, detail::span_of(o, kBlock).last + 1);
  }
  return ops;
}

TEST(OneTouch, LogLongerThanOneChunkMatchesBruteForce) {
  const std::vector<ReplayOp> ops =
      random_log(3 * ReplayLog::kChunkOps + 123, 5);
  const std::vector<bool> got = checked_marks(ops);
  std::size_t one_touch = 0;
  for (const bool b : got) one_touch += b ? 1 : 0;
  // Both kinds of op occur, across chunk boundaries.
  EXPECT_GT(one_touch, 0u);
  EXPECT_LT(one_touch, ops.size());
}

/// The records a ReplayOpSink turns back into `ops`.
std::vector<trace::Record> records_of(const std::vector<ReplayOp>& ops) {
  std::vector<trace::Record> out;
  for (const ReplayOp& o : ops) {
    trace::Record r;
    r.kind = o.is_read ? EventKind::kRead : EventKind::kWrite;
    r.file = o.file;
    r.job = o.job;
    r.node = o.node;
    r.offset = o.offset;
    r.bytes = o.bytes;
    out.push_back(r);
  }
  return out;
}

TEST(OneTouch, DiskBackedLogMarksLikeTheInMemoryLog) {
  const std::vector<ReplayOp> ops =
      random_log(2 * ReplayLog::kChunkOps + 77, 9);
  const std::vector<bool> want = brute_force(ops);
  ReplayOpSpill spill =
      oracle::replay_spill(records_of(ops), 0);  // every chunk on disk
  ASSERT_EQ(spill.mem_chunks().size(), 0u);
  ASSERT_GT(spill.disk_chunks(), 1u);
  const ReplayLog disk(std::move(spill), {});
  EXPECT_EQ(marks(disk), want);
  // Marks survive a second traversal (bits, not state of the first pass).
  EXPECT_EQ(marks(disk), want);

  ReplayOpSpill resident = oracle::replay_spill(records_of(ops));
  ASSERT_TRUE(resident.decode_resident());
  const ReplayLog memory(std::move(resident), {});
  EXPECT_EQ(marks(memory), want);
  EXPECT_EQ(disk.one_touch_stats().ops, memory.one_touch_stats().ops);
  EXPECT_EQ(disk.one_touch_stats().blocks, memory.one_touch_stats().blocks);
}

TEST(OneTouch, StatsCountOpsAndBlocks) {
  ReplayLog log(std::vector<ReplayOp>{op(1, 0, 10), op(1, 20, 30),
                                      op(1, 5, 1), op(2, 0, 9)});
  log.mark_one_touch();
  const OneTouchStats& s = log.one_touch_stats();
  EXPECT_EQ(s.ops, 2u);  // ops 1 and 3
  EXPECT_EQ(s.blocks, 39u);
  EXPECT_EQ(s.total_blocks, 50u);
  EXPECT_DOUBLE_EQ(s.block_frac(), 39.0 / 50.0);
  EXPECT_GE(s.mark_ms, 0.0);
}

TEST(OneTouch, MarksApplyOnlyAtTheMarkedBlockSize) {
  ReplayOp o = op(1, 0, 4);
  o.one_touch = true;
  EXPECT_TRUE(ReplayLog::one_touch(o, kBlock));
  EXPECT_FALSE(ReplayLog::one_touch(o, 2 * kBlock));
  o.one_touch = false;
  EXPECT_FALSE(ReplayLog::one_touch(o, kBlock));
}

// ---- Runs equal fresh keys --------------------------------------------------

/// One random script step: a key from a small universe, or a run.
struct Step {
  bool run = false;
  std::int64_t block = 0;   // access: the key's block
  std::uint64_t count = 0;  // run: its length
};

std::vector<Step> script(std::size_t capacity, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Step> steps;
  for (int i = 0; i < 3000; ++i) {
    Step s;
    s.run = rng.chance(0.15);
    if (s.run) {
      // Below, at and above the capacity.
      s.count = rng.uniform(2 * capacity + 4);
    } else {
      s.block = static_cast<std::int64_t>(rng.uniform(3 * capacity + 4));
    }
    steps.push_back(s);
  }
  return steps;
}

const std::vector<std::size_t> kCapacities = {0, 1, 2, 3, 7, 16, 40};

TEST(OneTouchRuns, BlockCacheRunEqualsFreshKeys) {
  for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
    for (const std::size_t capacity : kCapacities) {
      SCOPED_TRACE(std::string(to_string(policy)) + " capacity " +
                   std::to_string(capacity));
      BlockCache runs(capacity, policy);
      BlockCache fresh(capacity, policy);
      std::int64_t next_fresh = 0;
      std::size_t i = 0;
      for (const Step& s : script(capacity, 11 + capacity)) {
        if (s.run) {
          runs.insert_run(s.count);
          for (std::uint64_t k = 0; k < s.count; ++k) {
            EXPECT_FALSE(fresh.access({2, next_fresh++}, 0));
          }
        } else {
          EXPECT_EQ(runs.access({1, s.block}, 0),
                    fresh.access({1, s.block}, 0))
              << "step " << i;
        }
        ASSERT_EQ(runs.size(), fresh.size()) << "step " << i;
        ++i;
      }
      EXPECT_EQ(runs.hits(), fresh.hits());
      EXPECT_EQ(runs.accesses(), fresh.accesses());
      for (std::int64_t b = 0; b < static_cast<std::int64_t>(3 * capacity + 4);
           ++b) {
        EXPECT_EQ(runs.contains({1, b}), fresh.contains({1, b})) << b;
      }
    }
  }
}

TEST(OneTouchRuns, IpAwareCachesRejectRuns) {
  BlockCache cache(4, Policy::kInterprocessAware);
  EXPECT_THROW(cache.insert_run(2), util::CheckFailure);
}

TEST(OneTouchRuns, SegmentedStackRunEqualsFreshKeys) {
  const std::vector<std::vector<std::size_t>> capacity_sets = {
      {1}, {0, 1}, {1, 2, 3}, {2, 5, 9}, {0, 3, 7, 16, 40}, {1, 40}};
  for (const auto& capacities : capacity_sets) {
    std::string name;
    for (const std::size_t c : capacities) name += std::to_string(c) + " ";
    SCOPED_TRACE("capacities " + name);
    SegmentedLruStack runs(capacities);
    SegmentedLruStack fresh(capacities);
    std::int64_t next_fresh = 0;
    std::size_t i = 0;
    util::Rng rng(3);
    for (const Step& s : script(capacities.back(), 17 + capacities.back())) {
      if (s.run) {
        runs.insert_run(s.count);
        for (std::uint64_t k = 0; k < s.count; ++k) {
          EXPECT_EQ(fresh.access({2, next_fresh++}), fresh.miss_bucket());
        }
      } else if (rng.chance(0.3)) {
        // The compute-node path: peek first, then touch.
        EXPECT_EQ(runs.peek({1, s.block}), fresh.peek({1, s.block}))
            << "step " << i;
        runs.touch({1, s.block});
        fresh.touch({1, s.block});
      } else {
        EXPECT_EQ(runs.access({1, s.block}), fresh.access({1, s.block}))
            << "step " << i;
      }
      ASSERT_EQ(runs.size(), fresh.size()) << "step " << i;
      ++i;
    }
    for (std::int64_t b = 0;
         b < static_cast<std::int64_t>(3 * capacities.back() + 4); ++b) {
      EXPECT_EQ(runs.peek({1, b}), fresh.peek({1, b})) << b;
    }
  }
}

TEST(OneTouchRuns, HugeRunsClampToTheCapacity) {
  BlockCache cache(8, Policy::kLru);
  (void)cache.access({1, 0}, 0);
  cache.insert_run(std::uint64_t{1} << 40);
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_FALSE(cache.contains({1, 0}));
  EXPECT_EQ(cache.accesses(), (std::uint64_t{1} << 40) + 1);

  SegmentedLruStack stack({2, 8});
  (void)stack.access({1, 0});
  stack.insert_run(std::uint64_t{1} << 40);
  EXPECT_EQ(stack.size(), 8u);
  EXPECT_EQ(stack.peek({1, 0}), stack.miss_bucket());
}

// ---- Sweeps over a log full of runs -----------------------------------------

/// Small reads and writes that reuse a few hundred blocks of five files,
/// runs of small sequential reads, and big requests into fresh regions
/// (one-touch), some of which later reads partly re-touch.
std::vector<trace::Record> mixed_records() {
  std::vector<trace::Record> out;
  util::Rng rng(41);
  std::int64_t fresh = 1000;  // next fresh block of the big-request files
  std::vector<trace::Record> big;
  for (int i = 0; i < 9000; ++i) {
    trace::Record r;
    if (!out.empty() && rng.chance(0.3)) {
      // The same rank reads on from where it stopped, in small pieces that
      // the front caches absorb.
      r = out.back();
      r.kind = EventKind::kRead;
      r.offset += r.bytes;
      r.bytes = static_cast<std::int64_t>(1 + rng.uniform(512));
      out.push_back(r);
      continue;
    }
    r.kind = rng.chance(0.25) ? EventKind::kWrite : EventKind::kRead;
    r.job = static_cast<cfs::JobId>(1 + rng.uniform(3));
    r.node = static_cast<cfs::NodeId>(rng.uniform(12));
    const double pick = rng.uniform01();
    if (pick < 0.2) {
      // A big request into a fresh region.
      r.file = static_cast<cfs::FileId>(6 + rng.uniform(2));
      const auto blocks = static_cast<std::int64_t>(1 + rng.uniform(40));
      r.offset = fresh * kBlock + static_cast<std::int64_t>(rng.uniform(100));
      r.bytes = blocks * kBlock;
      fresh += blocks + 2;
      big.push_back(r);
    } else if (pick < 0.25 && !big.empty()) {
      // Re-read part of an earlier big request: neither stays one-touch.
      const trace::Record& b = big[rng.uniform(big.size())];
      r.kind = EventKind::kRead;
      r.file = b.file;
      r.offset = b.offset + static_cast<std::int64_t>(rng.uniform(
                                static_cast<std::uint64_t>(b.bytes)));
      r.bytes = static_cast<std::int64_t>(1 + rng.uniform(3 * kBlock));
    } else {
      r.file = static_cast<cfs::FileId>(1 + rng.uniform(5));
      r.offset = static_cast<std::int64_t>(rng.uniform(300 * 4096));
      r.bytes = static_cast<std::int64_t>(1 + rng.uniform(5 * 4096));
    }
    out.push_back(r);
  }
  return out;
}

std::set<SessionKey> mixed_read_only() {
  std::set<SessionKey> ro;
  for (cfs::JobId job = 1; job <= 3; ++job) {
    for (const cfs::FileId file : {1, 2, 3, 6, 7}) ro.emplace(job, file);
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

TEST(OneTouch, SweepOfAMixedLogMatchesPerConfig) {
  trace::SortedTrace trace;
  trace.records = mixed_records();
  const std::set<SessionKey> ro = mixed_read_only();

  std::vector<ComputeCacheConfig> compute;
  for (const std::size_t buffers : {0u, 1u, 4u, 16u, 64u}) {
    ComputeCacheConfig c;
    c.buffers_per_node = buffers;
    compute.push_back(c);
  }
  std::vector<IoNodeSimConfig> io;
  for (const Policy policy :
       {Policy::kLru, Policy::kFifo, Policy::kInterprocessAware}) {
    for (const std::size_t total : {5u, 40u, 200u, 1000u}) {
      io.push_back(io_config(total, policy, 10, 0));
    }
  }
  for (const std::size_t total : {40u, 400u}) {  // behind front caches
    io.push_back(io_config(total, Policy::kLru, 10, 2));
    io.push_back(io_config(total, Policy::kFifo, 10, 2));
  }
  io.push_back(io_config(300, Policy::kLru, 1, 0));  // kMulti singletons
  io.push_back(io_config(300, Policy::kFifo, 3, 1));
  io.push_back(io_config(90, Policy::kInterprocessAware, 3, 0));
  IoNodeSimConfig half_blocks = io_config(200, Policy::kLru, 4, 0);
  half_blocks.block_size = kBlock / 2;  // marks do not apply: steps blocks
  io.push_back(half_blocks);

  std::vector<ComputeCacheResult> compute_want;
  for (const auto& c : compute) {
    compute_want.push_back(simulate_compute_cache(trace, ro, c));
  }
  std::vector<IoNodeSimResult> io_want;
  for (const auto& c : io) io_want.push_back(simulate_io_cache(trace, ro, c));

  const auto check = [&](const SweepRunner& runner) {
    EXPECT_GT(runner.one_touch().ops, 0u);
    EXPECT_LT(runner.one_touch().ops, runner.replay_ops());
    const auto compute_got = runner.run_compute(compute);
    for (std::size_t i = 0; i < compute.size(); ++i) {
      SCOPED_TRACE("compute config " + std::to_string(i));
      EXPECT_EQ(compute_got[i].describe(), compute_want[i].describe());
      EXPECT_EQ(compute_got[i].job_hit_rates, compute_want[i].job_hit_rates);
    }
    const auto io_got = runner.run_io(io);
    for (std::size_t i = 0; i < io.size(); ++i) {
      SCOPED_TRACE("io config " + std::to_string(i));
      EXPECT_EQ(io_got[i].requests, io_want[i].requests);
      EXPECT_EQ(io_got[i].request_hits, io_want[i].request_hits);
      EXPECT_EQ(io_got[i].block_accesses, io_want[i].block_accesses);
      EXPECT_EQ(io_got[i].block_hits, io_want[i].block_hits);
      EXPECT_EQ(io_got[i].filtered_by_compute, io_want[i].filtered_by_compute);
    }
  };
  // The references see hits, filtering and misses alike.
  EXPECT_GT(io_want[3].request_hits, 0u);
  EXPECT_GT(io_want[12].filtered_by_compute, 0u);

  check(SweepRunner(oracle::replay_spill(trace.records), ro));
  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    check(SweepRunner(oracle::replay_spill(trace.records), ro, pool));
  }
}

}  // namespace
}  // namespace charisma::cache
