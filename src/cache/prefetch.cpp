#include "cache/prefetch.hpp"

#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/check.hpp"

namespace charisma::cache {

namespace {

/// An LRU/FIFO cache that also remembers which resident blocks arrived by
/// prefetch and have not been referenced yet.
class PrefetchingCache {
 public:
  PrefetchingCache(std::size_t capacity, Policy policy)
      : cache_(capacity, policy) {}

  struct Outcome {
    bool hit = false;
    bool first_use_of_prefetch = false;  // keep the stream rolling
  };
  Outcome access(const BlockKey& key, NodeId node) {
    Outcome o;
    o.hit = cache_.access(key, node);
    if (o.hit) {
      const auto it = unused_prefetches_.find(key);
      if (it != unused_prefetches_.end()) {
        ++used_;
        o.first_use_of_prefetch = true;
        unused_prefetches_.erase(it);
      }
    }
    return o;
  }

  void prefetch(const BlockKey& key, NodeId node) {
    if (cache_.contains(key)) return;
    ++issued_;
    (void)cache_.access(key, node);
    unused_prefetches_.insert(key);
  }

  [[nodiscard]] bool contains(const BlockKey& key) const {
    return cache_.contains(key);
  }
  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }

 private:
  BlockCache cache_;
  std::set<BlockKey, decltype([](const BlockKey& a, const BlockKey& b) {
             return a.file != b.file ? a.file < b.file : a.block < b.block;
           })>
      unused_prefetches_;
  std::uint64_t issued_ = 0;
  std::uint64_t used_ = 0;
};

}  // namespace

PrefetchResult simulate_prefetch(const ReplayLog& log,
                                 const PrefetchConfig& config) {
  util::check(config.io_nodes >= 1, "need at least one I/O node");
  util::check(config.prefetch_depth >= 0, "negative prefetch depth");
  PrefetchResult out;

  const std::size_t per_node =
      config.total_buffers / static_cast<std::size_t>(config.io_nodes);
  std::vector<PrefetchingCache> caches;
  caches.reserve(static_cast<std::size_t>(config.io_nodes));
  for (int i = 0; i < config.io_nodes; ++i) {
    caches.emplace_back(per_node, config.policy);
  }
  // Sequential detector state: last block accessed, per file.
  std::unordered_map<cfs::FileId, std::int64_t> last_block;

  const auto cache_of = [&](std::int64_t block) -> PrefetchingCache& {
    return caches[static_cast<std::size_t>(block % config.io_nodes)];
  };

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  log.for_each([&](const detail::ReplayOp& op) {
    const auto [first, last] = detail::span_of(op, config.block_size);
    ++out.requests;
    bool full_hit = true;
    for (std::int64_t b = first; b <= last; ++b) {
      const auto o = cache_of(b).access({op.file, b}, op.node);
      if (!o.hit) full_hit = false;
      // Prefetch ahead on a miss, and on the FIRST USE of a prefetched
      // block (streaming prefetch — otherwise a depth-1 lookahead
      // alternates hit/miss on a sequential scan).
      const auto it = last_block.find(op.file);
      const bool sequential =
          !config.sequential_detector ||
          (it != last_block.end() && it->second >= b - 2 && it->second <= b);
      const bool trigger = !o.hit || o.first_use_of_prefetch;
      if (config.prefetch_depth > 0 && trigger && sequential && op.is_read) {
        for (int d = 1; d <= config.prefetch_depth; ++d) {
          cache_of(b + d).prefetch({op.file, b + d}, op.node);
        }
      }
    }
    last_block[op.file] = last;
    if (full_hit) ++out.request_hits;
  });

  for (const auto& c : caches) {
    out.prefetches_issued += c.issued();
    out.prefetches_used += c.used();
  }
  out.hit_rate = hit_fraction(out.request_hits, out.requests);
  out.prefetch_accuracy =
      hit_fraction(out.prefetches_used, out.prefetches_issued);
  return out;
}

std::string PrefetchResult::describe() const {
  std::ostringstream s;
  s << "hit_rate=" << hit_rate << " prefetches=" << prefetches_issued
    << " used=" << prefetches_used << " accuracy=" << prefetch_accuracy;
  return s.str();
}

WriteBehindResult simulate_write_behind(const ReplayLog& log,
                                        const WriteBehindConfig& config) {
  util::check(config.io_nodes >= 1, "need at least one I/O node");
  WriteBehindResult out;
  // Per I/O node: an LRU set of dirty blocks.  Every block that misses is
  // written to disk exactly once — when it is evicted or at the final
  // flush — so the write-behind disk writes are the buffers' misses.
  std::vector<BlockCache> buffers;
  buffers.reserve(static_cast<std::size_t>(config.io_nodes));
  for (int i = 0; i < config.io_nodes; ++i) {
    buffers.emplace_back(config.buffers_per_node, Policy::kLru);
  }

  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  log.for_each([&](const detail::ReplayOp& op) {
    if (op.is_read) return;
    ++out.write_requests;
    const auto [first, last] = detail::span_of(op, config.block_size);
    for (std::int64_t b = first; b <= last; ++b) {
      (void)buffers[static_cast<std::size_t>(b % config.io_nodes)].access(
          {op.file, b}, op.node);
    }
  });
  for (const BlockCache& buf : buffers) {
    out.blocks_touched += buf.accesses();
    out.disk_writes_behind += buf.accesses() - buf.hits();
  }
  out.disk_writes_through = out.blocks_touched;  // every touch goes to disk
  return out;
}

std::string WriteBehindResult::describe() const {
  std::ostringstream s;
  s << "writes=" << write_requests << " disk_through=" << disk_writes_through
    << " disk_behind=" << disk_writes_behind << " reduction=" << reduction();
  return s.str();
}

}  // namespace charisma::cache
