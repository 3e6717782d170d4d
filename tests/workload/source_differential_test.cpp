// Differential lock on the workload::Source seam: the synthetic method
// pulled through the Source API must be bit-identical to the legacy
// materialized-script Driver path — same trace digest, same per-figure
// statistics — in both trace modes.  This is the guarantee that the
// pluggable-source refactor changed the plumbing and nothing else.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/stream_study.hpp"
#include "core/study.hpp"

namespace charisma {
namespace {

/// The repo-wide determinism anchor: scale 0.2 / seed 42 (see ROADMAP).
constexpr std::uint64_t kPinnedDigest = 0x5d6c862d0a86afe1ULL;

[[nodiscard]] core::StudyConfig base_config(double scale, std::uint64_t seed,
                                            bool legacy) {
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  config.legacy_driver = legacy;
  return config;
}

[[nodiscard]] core::StudySummary summarize(const core::StudyConfig& config,
                                           core::TraceMode mode,
                                           bool with_figures) {
  if (mode == core::TraceMode::kStreaming) {
    core::StreamOptions options;
    options.collect_replay_ops = with_figures;
    return core::summarize_streamed_study(
        "study", config, core::run_streamed_study(config, options),
        with_figures);
  }
  return core::summarize_study("study", config, core::run_study(config),
                               with_figures);
}

void expect_identical(const core::StudySummary& legacy,
                      const core::StudySummary& seam,
                      const std::string& what) {
  EXPECT_EQ(legacy.trace_digest, seam.trace_digest) << what;
  EXPECT_EQ(legacy.events_dispatched, seam.events_dispatched) << what;
  EXPECT_EQ(legacy.records, seam.records) << what;
  EXPECT_EQ(legacy.total_ops, seam.total_ops) << what;
  EXPECT_EQ(legacy.sim_end, seam.sim_end) << what;
  EXPECT_EQ(legacy.idle_fraction, seam.idle_fraction) << what;
  EXPECT_EQ(legacy.multiprogrammed_fraction, seam.multiprogrammed_fraction)
      << what;
  EXPECT_EQ(legacy.single_node_job_fraction, seam.single_node_job_fraction)
      << what;
  EXPECT_EQ(legacy.small_read_fraction, seam.small_read_fraction) << what;
  EXPECT_EQ(legacy.small_write_fraction, seam.small_write_fraction) << what;
  EXPECT_EQ(legacy.temporary_fraction, seam.temporary_fraction) << what;
  EXPECT_EQ(legacy.mode0_fraction, seam.mode0_fraction) << what;

  // Exact per-figure equality, curve for curve, point for point.
  ASSERT_EQ(legacy.figures.curves.size(), seam.figures.curves.size()) << what;
  for (std::size_t c = 0; c < legacy.figures.curves.size(); ++c) {
    const auto& lc = legacy.figures.curves[c];
    const auto& sc = seam.figures.curves[c];
    EXPECT_EQ(lc.name, sc.name) << what;
    ASSERT_EQ(lc.xs.size(), sc.xs.size()) << what << " " << lc.name;
    ASSERT_EQ(lc.ys.size(), sc.ys.size()) << what << " " << lc.name;
    for (std::size_t i = 0; i < lc.ys.size(); ++i) {
      EXPECT_EQ(lc.xs[i], sc.xs[i]) << what << " " << lc.name << "[" << i
                                    << "]";
      EXPECT_EQ(lc.ys[i], sc.ys[i]) << what << " " << lc.name << "[" << i
                                    << "]";
    }
  }
}

TEST(SourceDifferential, FullStatisticsMatchLegacyInBothTraceModes) {
  // Scale 0.05 is large enough that every figure has mass (the sweep
  // differential uses the same size for the same reason).
  for (const core::TraceMode mode :
       {core::TraceMode::kMaterialized, core::TraceMode::kStreaming}) {
    const core::StudySummary legacy = summarize(
        base_config(0.05, 7, /*legacy=*/true), mode, /*with_figures=*/true);
    const core::StudySummary seam = summarize(
        base_config(0.05, 7, /*legacy=*/false), mode, /*with_figures=*/true);
    expect_identical(legacy, seam,
                     std::string("trace mode ") + core::to_string(mode));
  }
}

TEST(SourceDifferential, DigestsMatchLegacyInBothTraceModes) {
  // One legacy reference digest, then the seam in both trace modes — each
  // must land on the same trace bytes.
  const core::StudyConfig reference = base_config(0.01, 7, /*legacy=*/true);
  const std::uint64_t expected = core::run_study(reference).raw.digest();

  const core::StudyConfig config = base_config(0.01, 7, /*legacy=*/false);
  for (const core::TraceMode mode :
       {core::TraceMode::kMaterialized, core::TraceMode::kStreaming}) {
    const std::uint64_t digest =
        mode == core::TraceMode::kStreaming
            ? core::run_streamed_study(config).trace_digest
            : core::run_study(config).raw.digest();
    EXPECT_EQ(digest, expected) << core::to_string(mode);
  }
}

TEST(SourceDifferential, PinnedDigestUnchangedThroughTheSeam) {
  // The determinism anchor every other suite pins (scale 0.2, seed 42) must
  // come out of the Source-fed pipeline unchanged — the refactor moved the
  // workload -> CFS boundary without disturbing a single trace byte.
  const core::StudyOutput out =
      core::run_study(base_config(0.2, 42, /*legacy=*/false));
  EXPECT_EQ(out.raw.digest(), kPinnedDigest);
}

TEST(SourceDifferential, LegacyDriverRejectsNonSyntheticSources) {
  core::StudyConfig config = base_config(0.01, 7, /*legacy=*/true);
  config.source.method = "checkpoint";
  EXPECT_ANY_THROW((void)core::run_study(config));
}

}  // namespace
}  // namespace charisma
