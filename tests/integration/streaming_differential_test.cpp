// Differential: the streaming pipeline (run_streamed_study +
// summarize_streamed_study) must be *bit-identical* to the materialized
// oracle (run_study + support/materialized_summary.hpp) — same digest, same
// statistics, same figure curves, same exported TSV bytes, same strided
// rewrite — at the pinned scale-0.2/seed-42 configuration and on a
// degenerate zero-record trace.  Streaming is the only production pipeline,
// so any drift here is a correctness bug, not a perf note.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "core/campaign.hpp"
#include "core/export.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "core/study.hpp"
#include "support/materialized_summary.hpp"
#include "trace/postprocess.hpp"
#include "trace/spill.hpp"
#include "util/units.hpp"

namespace charisma {
namespace {

// The determinism anchor every PR re-verifies (ROADMAP).
constexpr std::uint64_t kExpectedDigest = 0x5d6c862d0a86afe1ull;

struct Fixture {
  core::StudyConfig config;
  core::StudyOutput mat;
  core::StudySummary mat_summary;

  trace::TraceHeader str_header;
  std::uint64_t str_digest = 0;
  std::uint64_t str_records = 0;
  analysis::IoRateResult str_io_rate;
  core::StudySummary str_summary;
  core::StridedStats str_strided;

  Fixture() {
    config.workload.scale = 0.2;
    config.workload.seed = 42;
    // A caller-owned sink rides the same merge as the study's own.
    core::StridedRewriter strided(config.machine.io_nodes, util::kBlockSize);
    core::StreamOptions sopts;
    sopts.sinks.push_back(&strided);
    core::StreamedStudyOutput s = core::run_streamed_study(config, sopts);
    str_header = s.header;
    str_digest = s.trace_digest;
    str_records = s.streamed_records;
    str_io_rate = s.io_rate;
    str_strided = strided.finish();
    str_summary = core::summarize_streamed_study("scale0.2_seed42", config,
                                                 std::move(s));
    mat = core::run_study(config);
    mat_summary = oracle::summarize_study("scale0.2_seed42", config, mat);
  }
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

TEST(StreamingDifferential, DigestsMatchAndArePinned) {
  EXPECT_EQ(fixture().str_digest, kExpectedDigest);
  EXPECT_EQ(fixture().mat.raw.digest(), kExpectedDigest);
  EXPECT_EQ(fixture().str_summary.trace_digest,
            fixture().mat_summary.trace_digest);
}

TEST(StreamingDifferential, HeadersAndCountsMatch) {
  const auto& f = fixture();
  EXPECT_EQ(f.str_header.label, f.mat.raw.header.label);
  EXPECT_EQ(f.str_header.trace_start, f.mat.raw.header.trace_start);
  EXPECT_EQ(f.str_header.trace_end, f.mat.raw.header.trace_end);
  EXPECT_EQ(f.str_header.seed, f.mat.raw.header.seed);
  EXPECT_EQ(f.str_records, f.mat.sorted.records.size());
  EXPECT_EQ(f.str_summary.records, f.mat_summary.records);
  EXPECT_EQ(f.str_summary.events_dispatched, f.mat_summary.events_dispatched);
  EXPECT_EQ(f.str_summary.total_ops, f.mat_summary.total_ops);
  EXPECT_EQ(f.str_summary.sim_end, f.mat_summary.sim_end);
}

TEST(StreamingDifferential, MeasuredStatisticsExactlyEqual) {
  const auto& a = fixture().str_summary;
  const auto& b = fixture().mat_summary;
  // Exact (not approximate) equality: the accumulators ARE the
  // implementation the materialized analyzers call, so the doubles must be
  // bitwise identical, not merely close.
  EXPECT_EQ(a.idle_fraction, b.idle_fraction);
  EXPECT_EQ(a.multiprogrammed_fraction, b.multiprogrammed_fraction);
  EXPECT_EQ(a.single_node_job_fraction, b.single_node_job_fraction);
  EXPECT_EQ(a.small_read_fraction, b.small_read_fraction);
  EXPECT_EQ(a.small_write_fraction, b.small_write_fraction);
  EXPECT_EQ(a.temporary_fraction, b.temporary_fraction);
  EXPECT_EQ(a.mode0_fraction, b.mode0_fraction);
}

TEST(StreamingDifferential, FigureCurvesExactlyEqual) {
  const auto& a = fixture().str_summary.figures;
  const auto& b = fixture().mat_summary.figures;
  ASSERT_EQ(a.curves.size(), b.curves.size());
  ASSERT_FALSE(a.curves.empty());
  for (std::size_t i = 0; i < a.curves.size(); ++i) {
    SCOPED_TRACE(a.curves[i].name);
    EXPECT_EQ(a.curves[i].name, b.curves[i].name);
    EXPECT_EQ(a.curves[i].xs, b.curves[i].xs);
    EXPECT_EQ(a.curves[i].ys, b.curves[i].ys);
  }
}

TEST(StreamingDifferential, IoRateTimelineExactlyEqual) {
  const analysis::IoRateResult mat_rate =
      analysis::analyze_io_rate(fixture().mat.sorted);
  const analysis::IoRateResult& str_rate = fixture().str_io_rate;
  ASSERT_EQ(str_rate.timeline.size(), mat_rate.timeline.size());
  for (std::size_t i = 0; i < mat_rate.timeline.size(); ++i) {
    EXPECT_EQ(str_rate.timeline[i].start, mat_rate.timeline[i].start);
    EXPECT_EQ(str_rate.timeline[i].bytes_read, mat_rate.timeline[i].bytes_read);
    EXPECT_EQ(str_rate.timeline[i].bytes_written,
              mat_rate.timeline[i].bytes_written);
    EXPECT_EQ(str_rate.timeline[i].requests, mat_rate.timeline[i].requests);
  }
  EXPECT_EQ(str_rate.mean_mb_per_s, mat_rate.mean_mb_per_s);
  EXPECT_EQ(str_rate.peak_mb_per_s, mat_rate.peak_mb_per_s);
  EXPECT_EQ(str_rate.quiet_fraction, mat_rate.quiet_fraction);
}

TEST(StreamingDifferential, StridedSinkMatchesTheRecordVectorRewrite) {
  const auto& f = fixture();
  const core::StridedStats want = core::rewrite_strided(
      f.mat.sorted, f.mat.raw.header.io_nodes, f.mat.raw.header.block_size);
  const core::StridedStats& got = f.str_strided;
  EXPECT_GT(want.runs_of_two_or_more, 0u);
  EXPECT_EQ(got.original_requests, want.original_requests);
  EXPECT_EQ(got.strided_requests, want.strided_requests);
  EXPECT_EQ(got.original_messages, want.original_messages);
  EXPECT_EQ(got.strided_messages, want.strided_messages);
  EXPECT_EQ(got.runs_of_two_or_more, want.runs_of_two_or_more);
  EXPECT_EQ(got.longest_run, want.longest_run);
  EXPECT_EQ(got.render(), want.render());
}

TEST(StreamingDifferential, ExportedCampaignTsvsByteIdentical) {
  namespace fs = std::filesystem;
  const auto make_result = [](const core::StudySummary& s) {
    core::CampaignResult r;
    r.studies = {s};
    r.aggregates = core::aggregate_campaign(r.studies);
    r.figure_envelopes = core::fold_figure_envelopes(r.studies);
    return r;
  };
  const std::string base = ::testing::TempDir();
  const std::string dir_str = base + "charisma_diff_str";
  const std::string dir_mat = base + "charisma_diff_mat";
  fs::create_directories(dir_str);
  fs::create_directories(dir_mat);
  (void)core::export_campaign(make_result(fixture().str_summary), dir_str);
  (void)core::export_campaign(make_result(fixture().mat_summary), dir_mat);

  std::set<std::string> names;
  for (const auto& e : fs::directory_iterator(dir_str)) {
    names.insert(e.path().filename().string());
  }
  ASSERT_GT(names.size(), 10u);  // studies + aggregate + per-figure TSVs
  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  for (const auto& name : names) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(fs::exists(fs::path(dir_mat) / name));
    EXPECT_EQ(slurp(fs::path(dir_str) / name), slurp(fs::path(dir_mat) / name));
  }
  fs::remove_all(dir_str);
  fs::remove_all(dir_mat);
}

// The spill budget / async / prefetch matrix: every point must land on the
// same digest, the same (bitwise) statistics and figure curves, and the same
// exported TSV bytes as the materialized reference — the tiers move bytes
// between RAM and disk, never change them.  Run at a smaller scale so the
// whole matrix stays test-suite-sized.
TEST(StreamingBudgetMatrix, EveryTierConfigurationMatchesMaterialized) {
  namespace fs = std::filesystem;
  core::StudyConfig config;
  config.workload.scale = 0.05;
  config.workload.seed = 7;
  const core::StudyOutput mat = core::run_study(config);
  const core::StudySummary mat_summary =
      oracle::summarize_study("budget_matrix", config, mat);

  struct Case {
    const char* name;
    std::int64_t budget_mb;  // memory-tier budget
    bool async;
    bool prefetch;
  };
  const Case cases[] = {
      {"all_disk_sync", 0, false, true},
      {"all_disk_async", 0, true, true},
      {"all_disk_no_prefetch", 0, false, false},
      {"mixed_async", 1, true, true},
      {"all_memory", std::int64_t{4} << 10, true, true},
  };

  const auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const auto export_to = [](const core::StudySummary& s,
                            const std::string& dir) {
    core::CampaignResult r;
    r.studies = {s};
    r.aggregates = core::aggregate_campaign(r.studies);
    r.figure_envelopes = core::fold_figure_envelopes(r.studies);
    fs::create_directories(dir);
    (void)core::export_campaign(r, dir);
  };
  const std::string mat_dir = ::testing::TempDir() + "charisma_matrix_mat";
  export_to(mat_summary, mat_dir);

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::StudyConfig budgeted = config;
    budgeted.spill_budget_mb = c.budget_mb;
    core::StreamOptions sopts;
    sopts.async_spill = c.async;
    sopts.prefetch = c.prefetch;
    core::StreamedStudyOutput out = core::run_streamed_study(budgeted, sopts);

    EXPECT_EQ(out.trace_digest, mat.raw.digest());
    EXPECT_EQ(out.streamed_records, mat.sorted.records.size());
    EXPECT_EQ(out.spill.spill_budget_mb, c.budget_mb);
    if (c.budget_mb == 0) {
      // Budget 0 forces the all-disk pre-tier behavior.
      EXPECT_EQ(out.spill.trace_blocks_in_memory, 0u);
      EXPECT_GT(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_EQ(out.spill.ops_chunks_in_memory, 0u);
      EXPECT_GT(out.spill.spill_bytes_written, 0);
    } else if (c.budget_mb == 1) {
      // 1 MiB is mid-trace for scale 0.05: both tiers populated.
      EXPECT_GT(out.spill.trace_blocks_in_memory, 0u);
      EXPECT_GT(out.spill.trace_blocks_on_disk, 0u);
    } else {
      // A huge budget keeps everything resident: zero file I/O.
      EXPECT_EQ(out.spill.trace_blocks_on_disk, 0u);
      EXPECT_EQ(out.spill.ops_chunks_on_disk, 0u);
      EXPECT_EQ(out.spill.spill_bytes_written, 0);
      EXPECT_EQ(out.spill.spill_bytes_read, 0);
    }

    const core::StudySummary summary =
        core::summarize_streamed_study("budget_matrix", config,
                                       std::move(out));
    EXPECT_EQ(summary.trace_digest, mat_summary.trace_digest);
    EXPECT_EQ(summary.idle_fraction, mat_summary.idle_fraction);
    EXPECT_EQ(summary.small_read_fraction, mat_summary.small_read_fraction);
    EXPECT_EQ(summary.small_write_fraction, mat_summary.small_write_fraction);
    EXPECT_EQ(summary.temporary_fraction, mat_summary.temporary_fraction);
    EXPECT_EQ(summary.mode0_fraction, mat_summary.mode0_fraction);
    ASSERT_EQ(summary.figures.curves.size(),
              mat_summary.figures.curves.size());
    for (std::size_t i = 0; i < summary.figures.curves.size(); ++i) {
      SCOPED_TRACE(summary.figures.curves[i].name);
      EXPECT_EQ(summary.figures.curves[i].ys,
                mat_summary.figures.curves[i].ys);
    }

    const std::string dir =
        ::testing::TempDir() + "charisma_matrix_" + c.name;
    export_to(summary, dir);
    for (const auto& e : fs::directory_iterator(mat_dir)) {
      const auto name = e.path().filename();
      SCOPED_TRACE(name.string());
      ASSERT_TRUE(fs::exists(fs::path(dir) / name));
      EXPECT_EQ(slurp(fs::path(dir) / name), slurp(e.path()));
    }
    fs::remove_all(dir);
  }
  fs::remove_all(mat_dir);
}

// A trace with no records at all must flow through both pipelines without
// dividing by zero or diverging: empty store, empty histograms, equal
// (empty) everything.
TEST(StreamingDifferential, ZeroRecordTraceBothModes) {
  trace::TraceFile empty;
  empty.header.compute_nodes = 4;
  empty.header.io_nodes = 2;
  empty.header.trace_start = 0;
  empty.header.trace_end = 0;
  empty.header.label = "degenerate";

  // Materialized path.
  const trace::SortedTrace sorted = trace::postprocess(empty);
  const analysis::SessionStore mat_store(sorted);
  const analysis::RequestSizeResult mat_req =
      analysis::analyze_request_sizes(sorted);

  // Streaming path, through a finished zero-block spill.
  const std::string path = ::testing::TempDir() + "charisma_empty.spill";
  trace::SpillWriter writer(path, empty.header);
  const trace::SpilledTrace spilled = writer.finish(empty.header.trace_end);
  EXPECT_EQ(spilled.digest(), empty.digest());

  analysis::SessionAccumulator sessions;
  analysis::RequestSizeAccumulator requests;
  analysis::IoRateAccumulator io_rate(0, 0);
  EXPECT_EQ(trace::stream_postprocess(spilled, {&sessions, &requests,
                                                &io_rate}),
            0u);
  const analysis::SessionStore str_store = sessions.take(spilled.header);
  const analysis::RequestSizeResult str_req = requests.finish();
  const analysis::IoRateResult str_rate = io_rate.finish();

  EXPECT_EQ(str_store.read_only_sessions(), mat_store.read_only_sessions());
  EXPECT_TRUE(str_store.read_only_sessions().empty());
  EXPECT_EQ(str_req.small_read_fraction, mat_req.small_read_fraction);
  EXPECT_EQ(str_req.small_write_fraction, mat_req.small_write_fraction);
  EXPECT_EQ(str_rate.mean_mb_per_s,
            analysis::analyze_io_rate(sorted).mean_mb_per_s);

  // The degenerate case must not poison figure collection either.
  const auto str_figs = analysis::collect_trace_figures(
      str_store, str_req, empty.header.block_size);
  const auto mat_figs = analysis::collect_trace_figures(
      mat_store, mat_req, empty.header.block_size);
  ASSERT_EQ(str_figs.curves.size(), mat_figs.curves.size());
  for (std::size_t i = 0; i < str_figs.curves.size(); ++i) {
    EXPECT_EQ(str_figs.curves[i].ys, mat_figs.curves[i].ys);
  }
}

}  // namespace
}  // namespace charisma
