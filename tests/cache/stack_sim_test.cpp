#include "cache/stack_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "cache/block_cache.hpp"
#include "util/rng.hpp"

namespace charisma::cache {
namespace {

BlockKey key(std::int64_t block) { return {1, block}; }

// The textbook access string a, b, c, b, a, d, a, c has stack distances
// cold, cold, cold, 1, 2, cold, 1, 3.  With capacities {1, 2, 4} that
// pins each access's bucket: the index of the smallest capacity above the
// distance, or 3 (miss_bucket) for cold / too deep.
TEST(SegmentedLruStack, HandComputedAccessString) {
  SegmentedLruStack stack({1, 2, 4});
  ASSERT_EQ(stack.miss_bucket(), 3u);
  const std::int64_t a = 0, b = 1, c = 2, d = 3;

  EXPECT_EQ(stack.access(key(a)), 3u);  // cold
  EXPECT_EQ(stack.access(key(b)), 3u);  // cold
  EXPECT_EQ(stack.access(key(c)), 3u);  // cold
  EXPECT_EQ(stack.access(key(b)), 1u);  // distance 1: hits capacity 2 up
  EXPECT_EQ(stack.access(key(a)), 2u);  // distance 2: hits capacity 4 only
  EXPECT_EQ(stack.access(key(d)), 3u);  // cold
  EXPECT_EQ(stack.access(key(a)), 1u);  // distance 1
  EXPECT_EQ(stack.access(key(c)), 2u);  // distance 3: hits capacity 4 only
  EXPECT_EQ(stack.size(), 4u);
}

TEST(SegmentedLruStack, PeekDoesNotPromote) {
  SegmentedLruStack stack({1, 2, 4});
  stack.touch(key(0));
  stack.touch(key(1));
  stack.touch(key(2));
  EXPECT_EQ(stack.peek(key(0)), 2u);  // distance 2
  EXPECT_EQ(stack.peek(key(0)), 2u);  // unchanged: peek left the stack alone
  EXPECT_EQ(stack.peek(key(9)), stack.miss_bucket());
  stack.touch(key(0));
  EXPECT_EQ(stack.peek(key(0)), 0u);
  EXPECT_EQ(stack.peek(key(2)), 1u);  // 0 moved above it
}

TEST(SegmentedLruStack, EvictsPastTheLargestCapacity) {
  SegmentedLruStack stack({1, 2});
  stack.touch(key(0));
  stack.touch(key(1));
  stack.touch(key(2));  // pushes 0 past capacity 2: evicted
  EXPECT_EQ(stack.size(), 2u);
  EXPECT_EQ(stack.peek(key(0)), stack.miss_bucket());
  EXPECT_EQ(stack.peek(key(1)), 1u);
  EXPECT_EQ(stack.peek(key(2)), 0u);
  // Re-touching the evicted block is a cold access again.
  EXPECT_EQ(stack.access(key(0)), stack.miss_bucket());
}

TEST(SegmentedLruStack, ZeroCapacityGetsSkippedBucketZero) {
  // Capacity 0 never hits: bucket 0 must never be reported, and every
  // other bucket index must line up with the original capacity list.
  SegmentedLruStack stack({0, 2});
  ASSERT_EQ(stack.miss_bucket(), 2u);
  EXPECT_EQ(stack.access(key(0)), 2u);  // cold
  EXPECT_EQ(stack.access(key(0)), 1u);  // resident: hits capacity 2 only
  EXPECT_EQ(stack.access(key(1)), 2u);  // cold
  EXPECT_EQ(stack.access(key(0)), 1u);
}

// The inclusion property, checked exhaustively against the real cache: for
// every capacity c_i, "bucket <= i" must equal BlockCache(c_i, LRU)'s hit
// result on the same access, step by step over a long random key sequence.
TEST(SegmentedLruStack, MatchesBlockCacheHitsForEveryCapacity) {
  const std::vector<std::size_t> capacities = {1, 2, 4, 8, 16};
  util::Rng rng(123);

  SegmentedLruStack stack(capacities);
  std::vector<BlockCache> caches;
  caches.reserve(capacities.size());
  for (const std::size_t c : capacities) caches.emplace_back(c, Policy::kLru);

  for (int i = 0; i < 20000; ++i) {
    // Skewed towards small blocks so every capacity sees hits and misses.
    const auto blk = static_cast<std::int64_t>(
        rng.chance(0.5) ? rng.uniform(8) : rng.uniform(64));
    const std::size_t bucket = stack.access(key(blk));
    for (std::size_t c = 0; c < capacities.size(); ++c) {
      const bool cache_hit = caches[c].access(key(blk), 0);
      EXPECT_EQ(bucket <= c, cache_hit)
          << "step " << i << " block " << blk << " capacity " << capacities[c];
    }
  }
}

// Same exhaustive equivalence for the FIFO group pass, via the public sweep
// API: detail::fifo_io_group against per-config BlockCache FIFO replays is
// covered by the sweep differential tests; here pin the shared-hash
// presence semantics on a single-node shape directly.
TEST(FifoGroup, MatchesBlockCacheOnARandomStream) {
  const std::vector<std::size_t> per_node = {2, 4, 8};
  IoNodeSimConfig shape;
  shape.io_nodes = 1;
  shape.policy = Policy::kFifo;

  std::vector<detail::ReplayOp> ops;
  util::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    detail::ReplayOp op;
    op.file = 1;
    op.job = 1;
    op.node = 0;
    op.offset = static_cast<std::int64_t>(rng.uniform(32)) * shape.block_size;
    op.bytes = 1;  // single block per request
    op.is_read = true;
    op.read_only_session = true;
    ops.push_back(op);
  }

  const auto grouped = detail::fifo_io_group(ReplayLog(ops), shape, per_node);
  std::vector<BlockCache> caches;
  for (const std::size_t c : per_node) caches.emplace_back(c, Policy::kFifo);
  std::vector<std::uint64_t> hits(per_node.size(), 0);
  for (const auto& op : ops) {
    const std::int64_t b = op.offset / shape.block_size;
    for (std::size_t c = 0; c < caches.size(); ++c) {
      if (caches[c].access({op.file, b}, op.node)) ++hits[c];
    }
  }
  for (std::size_t c = 0; c < per_node.size(); ++c) {
    EXPECT_EQ(grouped[c].block_hits, hits[c]) << "capacity " << per_node[c];
    EXPECT_EQ(grouped[c].request_hits, hits[c]);  // one block per request
    EXPECT_EQ(grouped[c].requests, ops.size());
  }
}

// The FIFO group pass stamps insertions with a 32-bit per-queue counter in
// which 0 means "never inserted", so the counter must never wrap.  A
// one-touch run advances it in one step, which lets a test drive a queue
// to the last stamp: it still works there, and one more insertion throws
// instead of silently reporting a resident block as absent.
TEST(FifoGroup, StampCounterStopsAtTheEdge) {
  IoNodeSimConfig shape;
  shape.io_nodes = 1;
  shape.policy = Policy::kFifo;
  const auto block_op = [&](cfs::FileId file, std::int64_t first,
                            std::int64_t blocks) {
    detail::ReplayOp op;
    op.file = file;
    op.job = 1;
    op.offset = first * shape.block_size;
    op.bytes = blocks * shape.block_size;
    return op;
  };
  // 2^32 - 2 one-touch insertions, then one real insertion takes the last
  // stamp (2^32 - 1) and is hit afterwards.
  std::vector<detail::ReplayOp> ops = {
      block_op(1, 0, (std::int64_t{1} << 32) - 2), block_op(2, 0, 1),
      block_op(2, 0, 1)};
  ReplayLog at_edge(ops);
  at_edge.mark_one_touch();
  ASSERT_EQ(at_edge.one_touch_stats().ops, 1u);
  const auto results = detail::fifo_io_group(at_edge, shape, {1, 4});
  for (const IoNodeSimResult& r : results) {
    EXPECT_EQ(r.requests, 3u);
    EXPECT_EQ(r.block_hits, 1u);
    EXPECT_EQ(r.request_hits, 1u);
    EXPECT_EQ(r.block_accesses, (std::uint64_t{1} << 32));
  }

  ops.push_back(block_op(3, 0, 1));  // one insertion too many
  ReplayLog past_edge(ops);
  past_edge.mark_one_touch();
  EXPECT_THROW((void)detail::fifo_io_group(past_edge, shape, {1, 4}),
               util::CheckFailure);
}

}  // namespace
}  // namespace charisma::cache
