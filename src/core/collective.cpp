#include "core/collective.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "cache/simulators.hpp"
#include "util/table.hpp"

namespace charisma::core {

namespace {

struct Measured {
  util::MicroSec time = 0;
  std::uint64_t discontiguities = 0;
};

/// Services `blocks` (file-block indices of ONE I/O node) in the given
/// order against a fresh disk; block index maps to a disk address.
Measured service(const std::vector<std::int64_t>& blocks,
                 const CollectiveConfig& config) {
  disk::Disk d(config.disk);
  Measured m;
  std::int64_t head = -1;
  util::MicroSec now = 0;
  for (const std::int64_t b : blocks) {
    const std::int64_t addr =
        (b / config.io_nodes) * config.block_size %
        std::max<std::int64_t>(config.disk.capacity_bytes, 1);
    if (addr != head) ++m.discontiguities;
    now = d.submit(now, addr, config.block_size);
    head = addr + config.block_size;
  }
  m.time = d.busy_time();
  return m;
}

}  // namespace

CollectiveStats analyze_disk_directed(const cache::ReplayLog& log,
                                      const CollectiveConfig& config) {
  CollectiveStats out;
  // Per (job, file): the block-touch stream in trace order.
  std::map<cache::SessionKey, std::vector<std::int64_t>> streams;
  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  log.for_each([&](const cache::detail::ReplayOp& op) {
    auto& blocks = streams[{op.job, op.file}];
    const auto [first, last] = cache::detail::span_of(op, config.block_size);
    for (std::int64_t b = first; b <= last; ++b) {
      // Only the block's first touch reaches the disk (the cache absorbs
      // re-touches); dedup consecutive repeats cheaply.
      if (blocks.empty() || blocks.back() != b) blocks.push_back(b);
    }
  });

  for (auto& [key, blocks] : streams) {
    if (blocks.size() < config.min_blocks) continue;
    ++out.sessions;
    out.block_accesses += blocks.size();
    // Split the stream by owning I/O node, preserving first-touch order.
    // A collective batch fetches each block once (re-touches are served
    // from the batch buffer), so both orders are compared over the UNIQUE
    // blocks.
    std::vector<std::vector<std::int64_t>> per_io(
        static_cast<std::size_t>(config.io_nodes));
    std::set<std::int64_t> seen;
    for (const std::int64_t b : blocks) {
      if (!seen.insert(b).second) continue;
      per_io[static_cast<std::size_t>(b % config.io_nodes)].push_back(b);
    }
    for (auto& io_blocks : per_io) {
      if (io_blocks.empty()) continue;
      const Measured arrival = service(io_blocks, config);
      std::sort(io_blocks.begin(), io_blocks.end());
      const Measured directed = service(io_blocks, config);
      out.disk_time_arrival += arrival.time;
      out.disk_time_directed += directed.time;
      out.discontiguities_arrival += arrival.discontiguities;
      out.discontiguities_directed += directed.discontiguities;
    }
  }
  return out;
}

std::string CollectiveStats::render() const {
  util::Table t({"metric", "request order", "disk-directed"});
  t.add_row({"disk service time", util::format_duration(disk_time_arrival),
             util::format_duration(disk_time_directed)});
  t.add_row({"head repositionings", std::to_string(discontiguities_arrival),
             std::to_string(discontiguities_directed)});
  std::ostringstream s;
  s << t.render();
  s << sessions << " batched sessions, " << block_accesses
    << " block accesses; disk-directed saves "
    << util::fmt(time_reduction() * 100.0) << "% of disk time\n";
  return s.str();
}

}  // namespace charisma::core
