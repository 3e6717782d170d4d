// The ablation D and E kernels — prefetching, write-behind and disk-directed
// I/O — pinned on the scale-0.05 / seed-42 study.  The counters were taken
// from the record-vector kernels these replay-log kernels replace, so they
// hold the port (and write-behind's move onto BlockCache) to the old
// numbers exactly.  Each pin is checked over the study's own resident
// replay log and over an all-disk log of the same merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/prefetch.hpp"
#include "cache/replay.hpp"
#include "core/collective.hpp"
#include "core/stream_study.hpp"
#include "trace/spill.hpp"

namespace charisma::cache {
namespace {

constexpr std::uint64_t kStudyDigest = 0x314938b6bcfec01eULL;

struct Logs {
  int io_nodes = 0;
  /// The study's replay-op spill, every chunk and the decoded ops resident.
  ReplayLog resident;
  /// The same merge spilled through a second sink with a zero budget.
  ReplayLog disk;
};

const Logs& logs() {
  static const Logs l = [] {
    core::StudyConfig config;
    config.workload.scale = 0.05;
    config.workload.seed = 42;
    trace::SpillBudget none(0);
    ReplayOpSinkOptions disk_options;
    disk_options.budget = &none;
    ReplayOpSink disk_sink(disk_options);
    core::StreamOptions options;
    options.sinks = {&disk_sink};
    core::StreamedStudyOutput study =
        core::run_streamed_study(config, options);
    EXPECT_EQ(study.trace_digest, kStudyDigest);
    ReplayOpSpill disk = disk_sink.finish();
    EXPECT_TRUE(study.replay_ops.decode_resident());
    EXPECT_TRUE(disk.mem_chunks().empty());
    EXPECT_GT(disk.disk_chunks(), 0u);
    const auto read_only = study.sessions.read_only_sessions();
    return Logs{study.header.io_nodes,
                ReplayLog(std::move(study.replay_ops), read_only),
                ReplayLog(std::move(disk), read_only)};
  }();
  return l;
}

/// Runs `check` over both logs.
template <typename F>
void for_both_logs(F&& check) {
  const Logs& l = logs();
  {
    SCOPED_TRACE("resident log");
    check(l.resident);
  }
  {
    SCOPED_TRACE("all-disk log");
    check(l.disk);
  }
}

struct PrefetchPin {
  int depth;
  std::uint64_t request_hits;
  std::uint64_t issued;
  std::uint64_t used;
};

TEST(AblationKernels, PrefetchCountersArePinned) {
  const std::vector<PrefetchPin> pins = {
      {0, 301705, 0, 0}, {1, 311834, 13543, 10907}, {4, 314829, 17611, 13947}};
  for_both_logs([&](const ReplayLog& log) {
    for (const PrefetchPin& pin : pins) {
      SCOPED_TRACE("depth " + std::to_string(pin.depth));
      PrefetchConfig cfg;
      cfg.prefetch_depth = pin.depth;
      const PrefetchResult r = simulate_prefetch(log, cfg);
      EXPECT_EQ(r.requests, 359332u);
      EXPECT_EQ(r.request_hits, pin.request_hits);
      EXPECT_EQ(r.prefetches_issued, pin.issued);
      EXPECT_EQ(r.prefetches_used, pin.used);
      EXPECT_EQ(r.hit_rate, hit_fraction(pin.request_hits, 359332));
      EXPECT_EQ(r.prefetch_accuracy, hit_fraction(pin.used, pin.issued));
    }
  });
}

TEST(AblationKernels, WriteBehindCountersArePinned) {
  const std::vector<std::pair<std::size_t, std::uint64_t>> pins = {
      {0, 249123}, {1, 154721}, {50, 110134}};
  for_both_logs([&](const ReplayLog& log) {
    for (const auto& [buffers, behind] : pins) {
      SCOPED_TRACE(std::to_string(buffers) + " buffers per node");
      WriteBehindConfig cfg;
      cfg.buffers_per_node = buffers;
      const WriteBehindResult r = simulate_write_behind(log, cfg);
      EXPECT_EQ(r.write_requests, 145692u);
      EXPECT_EQ(r.blocks_touched, 249123u);
      EXPECT_EQ(r.disk_writes_through, 249123u);
      EXPECT_EQ(r.disk_writes_behind, behind);
    }
  });
}

TEST(AblationKernels, DiskDirectedCountersArePinned) {
  for_both_logs([&](const ReplayLog& log) {
    core::CollectiveConfig cfg;
    cfg.io_nodes = logs().io_nodes;
    ASSERT_EQ(cfg.io_nodes, 10);
    const core::CollectiveStats s = core::analyze_disk_directed(log, cfg);
    EXPECT_EQ(s.sessions, 3121u);
    EXPECT_EQ(s.block_accesses, 479025u);
    EXPECT_EQ(s.disk_time_arrival, 1923325409);
    EXPECT_EQ(s.disk_time_directed, 1885844657);
    EXPECT_EQ(s.discontiguities_arrival, 35113u);
    EXPECT_EQ(s.discontiguities_directed, 31106u);
  });
}

}  // namespace
}  // namespace charisma::cache
