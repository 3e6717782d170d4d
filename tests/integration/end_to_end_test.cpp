// Integration: the paper's qualitative findings must emerge from the full
// pipeline (workload -> machine -> CFS -> tracer -> postprocess -> analysis).
// Quantitative closeness is the benches' job (EXPERIMENTS.md); these tests
// pin the *shape* so a regression in any layer trips loudly.
#include <gtest/gtest.h>

#include "analysis/analyzers.hpp"
#include "cache/simulators.hpp"
#include "core/strided.hpp"
#include "core/study.hpp"
#include "support/materialized_study.hpp"

namespace charisma {
namespace {

struct Fixture {
  oracle::StudyOutput study;
  analysis::SessionStore store;
  std::set<cache::SessionKey> read_only;

  Fixture()
      : study(oracle::run_study_at_scale(0.15, 42)),
        store(study.sorted),
        read_only(store.read_only_sessions()) {}
};

const Fixture& fixture() {
  static const Fixture* f = new Fixture();
  return *f;
}

TEST(EndToEnd, JobMixShape) {
  const auto r = analysis::analyze_job_concurrency(fixture().store);
  // Paper Figure 1: idle more than a quarter of the time, a substantial
  // multiprogrammed share, never more than 8 jobs.
  EXPECT_GT(r.idle_fraction, 0.10);
  EXPECT_LT(r.idle_fraction, 0.60);
  EXPECT_GT(r.multiprogrammed_fraction, 0.10);
  EXPECT_LE(r.max_concurrent, 8);
}

TEST(EndToEnd, NodeCountShape) {
  const auto r = analysis::analyze_node_counts(fixture().store);
  // Paper Figure 2: one-node jobs dominate the population; big jobs
  // dominate node usage.
  EXPECT_GT(r.single_node_job_fraction, 0.6);
  EXPECT_GT(r.large_job_usage_share, 0.5);
  for (const auto& [nodes, count] : r.jobs_by_nodes) {
    EXPECT_EQ(nodes & (nodes - 1), 0) << "non-power-of-two job size";
  }
}

TEST(EndToEnd, FilePopulationShape) {
  const auto r = analysis::analyze_file_population(fixture().store);
  // Paper §4.2: write-only >> read-only >> read-write; few untouched; few
  // temporary.
  EXPECT_GT(r.write_only, r.read_only * 2);
  EXPECT_GT(r.read_only, r.read_write * 3);
  EXPECT_GT(r.untouched, 0);
  EXPECT_LT(r.temporary_fraction, 0.05);
  EXPECT_GT(r.sessions, 3000);
}

TEST(EndToEnd, RequestSizeShape) {
  const auto r = analysis::analyze_request_sizes(fixture().study.sorted);
  // Paper Figure 4: the vast majority of requests are small, but most of
  // the data moves through large requests.
  EXPECT_GT(r.small_read_fraction, 0.85);
  EXPECT_LT(r.small_read_data_fraction, 0.15);
  EXPECT_GT(r.small_write_fraction, 0.80);
  EXPECT_LT(r.small_write_data_fraction, 0.15);
}

TEST(EndToEnd, SequentialityShape) {
  const auto r = analysis::analyze_sequentiality(fixture().store);
  // Paper Figures 5/6: read-only and write-only files overwhelmingly
  // sequential; write-only mostly fully consecutive; a substantial share
  // of read-only files NOT fully consecutive (interleaved); read-write
  // files non-sequential.
  EXPECT_GT(r.read_only.fully_sequential, 0.85);
  EXPECT_GT(r.write_only.fully_sequential, 0.95);
  EXPECT_GT(r.write_only.fully_consecutive, 0.8);
  EXPECT_LT(r.read_only.fully_consecutive, 0.6);
  EXPECT_LT(r.read_write.fully_sequential, 0.2);
}

TEST(EndToEnd, RegularityShape) {
  const auto intervals = analysis::analyze_intervals(fixture().store);
  // Paper Table 2: ~95% of files have at most one distinct interval size;
  // nearly all 1-interval files are consecutive.
  const double at_most_one =
      static_cast<double>(intervals.buckets[0] + intervals.buckets[1]) /
      static_cast<double>(intervals.total_files);
  EXPECT_GT(at_most_one, 0.85);
  EXPECT_GT(intervals.one_interval_consecutive_share, 0.95);

  const auto sizes = analysis::analyze_request_regularity(fixture().store);
  // Paper Table 3: >90% of files use only one or two request sizes.
  EXPECT_GT(sizes.one_or_two_sizes_share, 0.9);
}

TEST(EndToEnd, ModeUsageShape) {
  const auto r = analysis::analyze_mode_usage(fixture().store);
  EXPECT_GT(r.mode0_fraction, 0.97);  // paper §4.6: over 99%
}

TEST(EndToEnd, SharingShape) {
  const auto r =
      analysis::analyze_sharing(fixture().store, util::kBlockSize);
  // Paper Figure 7: most concurrently-open read-only files fully
  // byte-shared; write-only files mostly share no bytes; strong
  // block-level sharing.
  EXPECT_GT(r.read_only.files, 20);
  EXPECT_GT(r.read_only.fully_byte_shared, 0.5);
  // Only a handful of write-only files are concurrently shared at this
  // test scale, so the threshold is loose; the full-scale bench lands at
  // ~90% (matching the paper).
  EXPECT_GT(r.write_only.no_bytes_shared, 0.5);
  EXPECT_GT(r.read_only.fully_block_shared, 0.6);
}

TEST(EndToEnd, ComputeCacheShape) {
  cache::ComputeCacheConfig cfg;
  cfg.buffers_per_node = 1;
  const auto one =
      cache::simulate_compute_cache(fixture().study.sorted,
                                    fixture().read_only, cfg);
  // Paper Figure 8: bimodal/trimodal — a cluster of jobs the cache cannot
  // help at all and a cluster it helps a lot.
  EXPECT_GT(one.fraction_jobs_zero, 0.15);
  EXPECT_GT(one.fraction_jobs_above_75, 0.10);
  // "One buffer was as good as many buffers": 50 buffers gain little.
  cfg.buffers_per_node = 50;
  const auto fifty =
      cache::simulate_compute_cache(fixture().study.sorted,
                                    fixture().read_only, cfg);
  EXPECT_LT(fifty.overall_hit_rate() - one.overall_hit_rate(), 0.2);
}

TEST(EndToEnd, IoNodeCacheShape) {
  cache::IoNodeSimConfig cfg;
  cfg.io_nodes = 10;
  cfg.total_buffers = 4000;
  const auto lru = cache::simulate_io_cache(fixture().study.sorted,
                                            fixture().read_only, cfg);
  // Paper Figure 9: a modest cache reaches a high request hit rate.
  EXPECT_GT(lru.hit_rate, 0.75);
  // And a tiny cache does notably worse.
  cfg.total_buffers = 100;
  const auto tiny = cache::simulate_io_cache(fixture().study.sorted,
                                             fixture().read_only, cfg);
  EXPECT_LT(tiny.hit_rate, lru.hit_rate - 0.02);
}

TEST(EndToEnd, CombinedCacheShape) {
  cache::IoNodeSimConfig cfg;
  cfg.io_nodes = 10;
  cfg.total_buffers = 500;  // 50 buffers per I/O node, as in §4.8
  const auto io_only = cache::simulate_io_cache(fixture().study.sorted,
                                                fixture().read_only, cfg);
  cfg.compute_buffers_per_node = 1;
  const auto combined = cache::simulate_io_cache(fixture().study.sorted,
                                                 fixture().read_only, cfg);
  // §4.8: the front caches absorb requests, yet the I/O-node hit rate only
  // drops a little — its hits are mostly interprocess.  (Paper: ~3%; our
  // synthetic workload keeps somewhat more intraprocess locality in the
  // I/O-node stream, see EXPERIMENTS.md.)
  EXPECT_GT(combined.filtered_by_compute, 0u);
  EXPECT_LT(io_only.hit_rate - combined.hit_rate, 0.20);
}

TEST(EndToEnd, StridedRewritingShape) {
  const auto s = core::rewrite_strided(fixture().study.sorted, 10,
                                       util::kBlockSize);
  // §5: regular request/interval sizes were common, so strided requests
  // collapse most of the request stream.
  EXPECT_GT(s.request_reduction(), 0.5);
  EXPECT_GT(s.message_reduction(), 0.5);
}

TEST(EndToEnd, FilesPerJobShape) {
  const auto r = analysis::analyze_files_per_job(fixture().store);
  // Paper Table 1: mass at 1 and at 4 and a majority at 5+.
  EXPECT_GT(r.buckets[0], 0);
  EXPECT_GT(r.buckets[3], 0);
  EXPECT_GT(r.buckets[4], r.buckets[1]);
  EXPECT_GT(r.max_files_one_job, 100);
}

}  // namespace
}  // namespace charisma
