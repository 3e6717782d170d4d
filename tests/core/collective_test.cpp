#include "core/collective.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/replay_spill.hpp"

namespace charisma::core {
namespace {

using oracle::replay_log;
using trace::EventKind;

trace::Record block_read(cfs::NodeId node, cfs::FileId file,
                         std::int64_t block) {
  trace::Record r;
  r.kind = EventKind::kRead;
  r.job = 1;
  r.node = node;
  r.file = file;
  r.offset = block * 4096;
  r.bytes = 4096;
  return r;
}

CollectiveConfig one_disk() {
  CollectiveConfig cfg;
  cfg.io_nodes = 1;
  cfg.min_blocks = 4;
  return cfg;
}

TEST(Collective, SortedAccessIsNeverSlower) {
  // Nodes interleave out of order: 0, 8, 1, 9, 2, 10 ...
  std::vector<trace::Record> t;
  for (int i = 0; i < 8; ++i) {
    t.push_back(block_read(0, 1, i));
    t.push_back(block_read(1, 1, i + 8));
  }
  const auto s = analyze_disk_directed(replay_log(t), one_disk());
  EXPECT_EQ(s.sessions, 1u);
  EXPECT_LE(s.disk_time_directed, s.disk_time_arrival);
  EXPECT_LT(s.discontiguities_directed, s.discontiguities_arrival);
  EXPECT_GT(s.time_reduction(), 0.0);
}

TEST(Collective, AlreadySequentialGainsNothing) {
  std::vector<trace::Record> t;
  for (int i = 0; i < 16; ++i) t.push_back(block_read(0, 1, i));
  const auto s = analyze_disk_directed(replay_log(t), one_disk());
  EXPECT_EQ(s.disk_time_directed, s.disk_time_arrival);
  EXPECT_DOUBLE_EQ(s.time_reduction(), 0.0);
}

TEST(Collective, SmallSessionsAreSkipped) {
  std::vector<trace::Record> t;
  t.push_back(block_read(0, 1, 5));
  t.push_back(block_read(0, 1, 1));
  const auto s = analyze_disk_directed(replay_log(t), one_disk());
  EXPECT_EQ(s.sessions, 0u);
  EXPECT_EQ(s.block_accesses, 0u);
}

TEST(Collective, StreamsAreSplitPerIoNode) {
  // With 2 I/O nodes, even/odd blocks go to different disks; each disk's
  // stream of an in-order scan stays in order.
  std::vector<trace::Record> t;
  for (int i = 0; i < 16; ++i) t.push_back(block_read(0, 1, i));
  CollectiveConfig cfg;
  cfg.io_nodes = 2;
  cfg.min_blocks = 4;
  const auto s = analyze_disk_directed(replay_log(t), cfg);
  EXPECT_DOUBLE_EQ(s.time_reduction(), 0.0);
}

TEST(Collective, RenderMentionsSavings) {
  std::vector<trace::Record> t;
  for (int i = 15; i >= 0; --i) t.push_back(block_read(0, 1, i));
  const auto s = analyze_disk_directed(replay_log(t), one_disk());
  EXPECT_NE(s.render().find("disk-directed"), std::string::npos);
  EXPECT_GT(s.time_reduction(), 0.0);  // reverse order sorted helps
}

}  // namespace
}  // namespace charisma::core
