// Differential lock on the workload sources: for every source — the
// synthetic reconstruction, its chwl export replayed, and the checkpoint
// archetype — the streaming production pipeline (run_streamed_study +
// summarize_streamed_study) must be bit-identical to the materialized oracle
// (oracle::run_study + support/materialized_summary.hpp): same trace
// digest, same headline statistics, same per-figure curves.  The export must also replay
// to the synthetic study's digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"
#include "support/materialized_summary.hpp"
#include "workload/replay.hpp"
#include "workload/source.hpp"

namespace charisma {
namespace {

/// The repo-wide determinism anchor: scale 0.2 / seed 42 (see ROADMAP).
constexpr std::uint64_t kPinnedDigest = 0x5d6c862d0a86afe1ULL;

[[nodiscard]] core::StudyConfig base_config(double scale, std::uint64_t seed) {
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return config;
}

void expect_identical(const core::StudySummary& want,
                      const core::StudySummary& got, const std::string& what) {
  EXPECT_EQ(want.trace_digest, got.trace_digest) << what;
  EXPECT_EQ(want.events_dispatched, got.events_dispatched) << what;
  EXPECT_EQ(want.records, got.records) << what;
  EXPECT_EQ(want.total_ops, got.total_ops) << what;
  EXPECT_EQ(want.sim_end, got.sim_end) << what;
  EXPECT_EQ(want.idle_fraction, got.idle_fraction) << what;
  EXPECT_EQ(want.multiprogrammed_fraction, got.multiprogrammed_fraction)
      << what;
  EXPECT_EQ(want.single_node_job_fraction, got.single_node_job_fraction)
      << what;
  EXPECT_EQ(want.small_read_fraction, got.small_read_fraction) << what;
  EXPECT_EQ(want.small_write_fraction, got.small_write_fraction) << what;
  EXPECT_EQ(want.temporary_fraction, got.temporary_fraction) << what;
  EXPECT_EQ(want.mode0_fraction, got.mode0_fraction) << what;

  // Exact per-figure equality, curve for curve, point for point.
  ASSERT_EQ(want.figures.curves.size(), got.figures.curves.size()) << what;
  ASSERT_FALSE(want.figures.curves.empty()) << what;
  for (std::size_t c = 0; c < want.figures.curves.size(); ++c) {
    const auto& wc = want.figures.curves[c];
    const auto& gc = got.figures.curves[c];
    EXPECT_EQ(wc.name, gc.name) << what;
    EXPECT_EQ(wc.xs, gc.xs) << what << " " << wc.name;
    EXPECT_EQ(wc.ys, gc.ys) << what << " " << wc.name;
  }
}

/// The three sources at one size and seed: the synthetic reconstruction, its
/// chwl export (written to `log`) replayed, and the checkpoint archetype.
[[nodiscard]] std::vector<core::StudyConfig> every_source(
    double scale, std::uint64_t seed, const std::string& log) {
  const core::StudyConfig synthetic = base_config(scale, seed);
  workload::export_source_log(
      *workload::load_source(synthetic.source, synthetic.workload), log);

  core::StudyConfig replay = synthetic;
  replay.source = workload::parse_source_spec("replay:" + log);
  core::StudyConfig checkpoint = synthetic;
  checkpoint.source = workload::parse_source_spec("checkpoint");
  return {synthetic, replay, checkpoint};
}

TEST(SourceDifferential, FullStatisticsMatchOracleForEverySource) {
  // Scale 0.05 is large enough that every figure has mass (the sweep
  // differential uses the same size for the same reason).
  const std::string log =
      ::testing::TempDir() + "charisma_source_differential_stats.chwl";
  for (const core::StudyConfig& config : every_source(0.05, 7, log)) {
    const std::string what = workload::to_string(config.source);
    SCOPED_TRACE(what);
    const core::StudySummary want =
        oracle::summarize_study("study", config, oracle::run_study(config));
    const core::StudySummary got = core::summarize_streamed_study(
        "study", config, core::run_streamed_study(config));
    expect_identical(want, got, what);
  }
  std::remove(log.c_str());
}

TEST(SourceDifferential, DigestsMatchOracleForEverySource) {
  // Per source, the streamed trace must hash to the materialized oracle's
  // trace bytes.
  const std::string log =
      ::testing::TempDir() + "charisma_source_differential_digest.chwl";
  std::vector<std::uint64_t> digests;
  for (const core::StudyConfig& config : every_source(0.01, 7, log)) {
    const std::uint64_t want = oracle::run_study(config).raw.digest();
    const std::uint64_t got = core::run_streamed_study(config).trace_digest;
    EXPECT_EQ(got, want) << workload::to_string(config.source);
    digests.push_back(got);
  }
  std::remove(log.c_str());
  // The export replays to the synthetic trace, byte for byte; the
  // checkpoint archetype is a different workload altogether.
  EXPECT_EQ(digests[1], digests[0]);
  EXPECT_NE(digests[2], digests[0]);
}

TEST(SourceDifferential, PinnedDigestUnchangedThroughTheSeam) {
  // The determinism anchor every other suite pins (scale 0.2, seed 42) must
  // come out of the Source-fed pipeline unchanged.
  const oracle::StudyOutput out = oracle::run_study(base_config(0.2, 42));
  EXPECT_EQ(out.raw.digest(), kPinnedDigest);
}

}  // namespace
}  // namespace charisma
