#include "core/study.hpp"

#include <gtest/gtest.h>

#include "analysis/analyzers.hpp"
#include "core/report.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "support/materialized_study.hpp"

namespace charisma::core {
namespace {

TEST(Study, RunsEndToEnd) {
  const auto out = oracle::run_study_at_scale(0.02, 3);
  EXPECT_GT(out.records, 1000u);
  EXPECT_GT(out.total_ops, 1000u);
  EXPECT_GT(out.sim_end, 0);
  EXPECT_EQ(out.sorted.records.size(), out.raw.record_count());
  EXPECT_EQ(out.raw.header.compute_nodes, 128);
  EXPECT_EQ(out.raw.header.io_nodes, 10);
  EXPECT_FALSE(out.jobs.empty());
}

TEST(Study, DeterministicTraces) {
  const auto a = oracle::run_study_at_scale(0.02, 7);
  const auto b = oracle::run_study_at_scale(0.02, 7);
  ASSERT_EQ(a.sorted.records.size(), b.sorted.records.size());
  for (std::size_t i = 0; i < a.sorted.records.size(); ++i) {
    EXPECT_EQ(a.sorted.records[i].timestamp, b.sorted.records[i].timestamp);
    EXPECT_EQ(a.sorted.records[i].offset, b.sorted.records[i].offset);
    EXPECT_EQ(a.sorted.records[i].file, b.sorted.records[i].file);
  }
  EXPECT_EQ(a.sim_end, b.sim_end);
}

TEST(Study, DifferentSeedsDifferentTraces) {
  const auto a = oracle::run_study_at_scale(0.02, 1);
  const auto b = oracle::run_study_at_scale(0.02, 2);
  EXPECT_NE(a.sorted.records.size(), b.sorted.records.size());
}

TEST(Study, SortedTraceIsChronological) {
  const auto out = oracle::run_study_at_scale(0.02, 11);
  for (std::size_t i = 1; i < out.sorted.records.size(); ++i) {
    EXPECT_LE(out.sorted.records[i - 1].timestamp,
              out.sorted.records[i].timestamp);
  }
}

TEST(Study, InstrumentationPerturbationIsSmall) {
  const auto out = oracle::run_study_at_scale(0.05, 13);
  // §3.1: node buffering cuts collector messages by >90%.
  EXPECT_LT(out.collector_messages, out.records / 10);
  // §3.1: trace output stays well under 1% of total disk traffic... our
  // bar: under 2% even at small scales.
  EXPECT_LT(static_cast<double>(out.trace_bytes),
            0.02 * static_cast<double>(out.user_bytes_moved));
}

TEST(Study, FullReportMentionsEverySection) {
  StudyConfig config;
  config.workload.scale = 0.02;
  config.workload.seed = 17;
  StridedRewriter strided(config.machine.io_nodes, util::kBlockSize);
  StreamOptions options;
  options.sinks.push_back(&strided);
  const StreamedStudyOutput out = run_streamed_study(config, options);
  const std::string report = full_report(out, strided.finish());
  for (const char* section :
       {"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figures 5/6",
        "Figure 7", "Table 1", "Table 2", "Table 3", "S4.2", "S4.6",
        "I/O rate", "Strided"}) {
    EXPECT_NE(report.find(section), std::string::npos) << section;
  }
}

TEST(Study, ReportSectionsMatchTheMaterializedOracle) {
  StudyConfig config;
  config.workload.scale = 0.02;
  config.workload.seed = 23;
  const StreamedStudyOutput streamed = run_streamed_study(config);
  const auto mat = oracle::run_study(config);
  const analysis::SessionStore store(mat.sorted);
  const auto requests = analysis::analyze_request_sizes(mat.sorted);
  const std::int64_t bs = mat.raw.header.block_size;
  EXPECT_EQ(render_sections(streamed.sessions, streamed.request_sizes, bs),
            render_sections(store, requests, bs));
  // One named section renders alone; "paper" is no §4 section.
  const std::string jobs = render_sections(store, requests, bs, "jobs");
  EXPECT_EQ(jobs.rfind("--- Jobs (Figure 1) ---\n", 0), 0u);
  EXPECT_EQ(jobs.find("--- Nodes"), std::string::npos);
  EXPECT_TRUE(render_sections(store, requests, bs, "paper").empty());
  EXPECT_EQ(report_sections().size(), 11u);
}

TEST(Study, TraceSurvivesDiskRoundTrip) {
  const auto out = oracle::run_study_at_scale(0.02, 19);
  const std::string path = ::testing::TempDir() + "study_roundtrip.chtr";
  out.raw.write(path);
  const auto back = trace::TraceFile::read(path);
  EXPECT_EQ(back.record_count(), out.raw.record_count());
  const auto sorted = trace::postprocess(back);
  ASSERT_EQ(sorted.records.size(), out.sorted.records.size());
  for (std::size_t i = 0; i < sorted.records.size(); i += 97) {
    EXPECT_EQ(sorted.records[i].timestamp, out.sorted.records[i].timestamp);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace charisma::core
