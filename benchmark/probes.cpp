#include "probes.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "cache/block_cache.hpp"
#include "cache/stack_sim.hpp"
#include "cfs/file_system.hpp"
#include "disk/disk.hpp"
#include "net/hypercube.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace charisma::perf {

namespace {

using cache::detail::ReplayOp;

// Caps that keep each probe near a second at the benchmark's scales.
constexpr std::size_t kMaxBlockAccesses = std::size_t{4} << 20;
constexpr std::size_t kRouteCalls = std::size_t{1} << 20;
constexpr std::size_t kMaxDiskSubmits = std::size_t{1} << 20;

[[nodiscard]] double per_call_ns(std::int64_t ns, std::uint64_t calls) {
  return calls == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(calls);
}

/// Calls f(BlockKey, node) for every 4 KB block of every op, up to the cap.
template <typename F>
std::uint64_t for_each_block(const std::vector<ReplayOp>& ops, F&& f) {
  std::uint64_t n = 0;
  for (const ReplayOp& op : ops) {
    const std::int64_t first = op.offset / util::kBlockSize;
    const std::int64_t last = (op.offset + op.bytes - 1) / util::kBlockSize;
    for (std::int64_t b = first; b <= last; ++b) {
      f(cache::BlockKey{op.file, b}, op.node);
      if (++n == kMaxBlockAccesses) return n;
    }
  }
  return n;
}

}  // namespace

CapturedOps capture_ops(const cache::ReplayOpSpill& spill, std::size_t keep) {
  CapturedOps out;
  out.ops.reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(spill.count(), keep)));
  std::vector<ReplayOp> buf;
  const auto decode = [&](const std::uint8_t* data, std::size_t size,
                          std::uint32_t count) {
    buf.resize(count);
    const auto start = Clock::now();
    const std::size_t used = cache::detail::decode_ops(data, size, count,
                                                       buf.data());
    out.decode_ns += ns_between(start, Clock::now());
    if (used != size) throw std::runtime_error("replay chunk trailing bytes");
    out.decoded += count;
    const std::size_t room = keep - out.ops.size();
    out.ops.insert(out.ops.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(
                                     std::min<std::size_t>(room, count)));
  };
  for (const auto& chunk : spill.mem_chunks()) {
    decode(chunk.bytes.data(), chunk.bytes.size(), chunk.count);
  }
  if (spill.disk_chunks() > 0) {
    // Overflow frames: [u32 op count][u32 payload length][payload].
    std::ifstream in(spill.path(), std::ios::binary);
    std::vector<std::uint8_t> payload;
    for (std::uint64_t c = 0; c < spill.disk_chunks(); ++c) {
      std::uint32_t head[2] = {0, 0};
      if (!in.read(reinterpret_cast<char*>(head), sizeof head)) {
        throw std::runtime_error("replay spill frame header short read");
      }
      payload.resize(head[1]);
      if (!in.read(reinterpret_cast<char*>(payload.data()),
                   static_cast<std::streamsize>(head[1]))) {
        throw std::runtime_error("replay spill frame payload short read");
      }
      decode(payload.data(), payload.size(), head[0]);
    }
  }
  return out;
}

ProbeResults run_probes(const std::vector<ReplayOp>& ops,
                        std::uint64_t seed) {
  ProbeResults r;

  // CFS: a fresh file system holding one file per traced file, each
  // pre-allocated to its furthest traced byte, then plan_into per op.
  cfs::FileSystem fs;
  std::map<cfs::FileId, cfs::FileId> files;  // traced id -> probe id
  {
    std::map<cfs::FileId, std::int64_t> extent;
    for (const ReplayOp& op : ops) {
      std::int64_t& e = extent[op.file];
      e = std::max(e, op.offset + op.bytes);
    }
    for (const auto& [traced, bytes] : extent) {
      const cfs::OpenResult opened = fs.open(
          1, 0, "probe" + std::to_string(traced),
          cfs::kRead | cfs::kWrite | cfs::kCreate, cfs::IoMode::kIndependent,
          0);
      if (!opened.ok) continue;
      if (fs.reserve_write(1, 0, opened.file, bytes, 0).ok) {
        files[traced] = opened.file;
      }
    }
  }
  std::vector<cfs::BlockAccess> disk_requests;
  disk_requests.reserve(kMaxDiskSubmits);
  {
    std::vector<std::pair<cfs::FileId, const ReplayOp*>> planned;
    planned.reserve(ops.size());
    for (const ReplayOp& op : ops) {
      const auto it = files.find(op.file);
      if (it != files.end()) planned.emplace_back(it->second, &op);
    }
    cfs::BlockPlan plan;
    std::uint64_t blocks = 0;
    const auto start = Clock::now();
    for (const auto& [file, op] : planned) {
      plan.clear();
      fs.plan_into(file, op->offset, op->bytes, plan);
      blocks += plan.size();
    }
    r.checksum += blocks;
    r.cfs_plan_ns = per_call_ns(ns_between(start, Clock::now()),
                                planned.size());
    r.cfs_blocks_per_request =
        planned.empty() ? 0.0
                        : static_cast<double>(blocks) /
                              static_cast<double>(planned.size());
    // The disk probe replays the first planned blocks (outside the timing).
    for (const auto& [file, op] : planned) {
      plan.clear();
      fs.plan_into(file, op->offset, op->bytes, plan);
      for (const cfs::BlockAccess& a : plan) {
        if (disk_requests.size() == kMaxDiskSubmits) break;
        disk_requests.push_back(a);
      }
      if (disk_requests.size() == kMaxDiskSubmits) break;
    }
  }

  // Disk: one drive serving the planned block stream back to back.
  {
    disk::Disk drive;
    util::MicroSec now = 0;
    const auto start = Clock::now();
    for (const cfs::BlockAccess& a : disk_requests) {
      now = drive.submit(now, a.disk_offset, a.bytes);
    }
    r.checksum += static_cast<std::uint64_t>(now);
    r.disk_submit_ns = per_call_ns(ns_between(start, Clock::now()),
                                   disk_requests.size());
  }

  // Net: e-cube routes between seeded random node pairs of the 128-node cube.
  {
    const net::Hypercube cube(7);
    util::Rng rng(seed);
    std::vector<std::pair<net::NodeId, net::NodeId>> pairs(kRouteCalls);
    for (auto& [from, to] : pairs) {
      from = static_cast<net::NodeId>(rng.next() % 128);
      to = static_cast<net::NodeId>(rng.next() % 128);
    }
    std::vector<net::NodeId> route;
    std::uint64_t hops = 0;
    const auto start = Clock::now();
    for (const auto& [from, to] : pairs) {
      hops += static_cast<std::uint64_t>(cube.route_into(from, to, route));
    }
    r.net_route_ns = per_call_ns(ns_between(start, Clock::now()), pairs.size());
    r.checksum += hops;
  }

  // Cache kernels over the block stream: one LRU BlockCache of the default
  // per-I/O-node size, and one stack covering the Figure 9 per-node grid.
  {
    cache::BlockCache block_cache(400, cache::Policy::kLru);
    const auto start = Clock::now();
    const std::uint64_t n = for_each_block(
        ops, [&](const cache::BlockKey& key, cfs::NodeId node) {
          block_cache.access(key, node);
        });
    r.block_cache_access_ns = per_call_ns(ns_between(start, Clock::now()), n);
  }
  {
    cache::SegmentedLruStack stack(
        {10, 25, 50, 100, 200, 400, 800, 1600, 2500});
    std::uint64_t buckets = 0;
    const auto start = Clock::now();
    const std::uint64_t n = for_each_block(
        ops, [&](const cache::BlockKey& key, cfs::NodeId) {
          buckets += stack.access(key);
        });
    r.lru_stack_ns = per_call_ns(ns_between(start, Clock::now()), n);
    r.checksum += buckets;
  }
  return r;
}

}  // namespace charisma::perf
