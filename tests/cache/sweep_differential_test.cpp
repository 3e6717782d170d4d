// Sweep differential suite: for a real (scale-0.05) generated trace, every
// fig 8 / fig 9 / §4.8 configuration — plus the IP-aware ablation — must
// produce bit-identical results between the per-config reference (one
// simulate_compute_cache / simulate_io_cache call, i.e. one full replay, per
// point) and SweepRunner's grouped passes (stack simulation for LRU, batched
// replay for the rest), for the serial runner and for pools of
// 1 / 2 / 3 / 4 / 8 threads (a pooled runner splits each pass into I/O-node
// slices; 3 and 4 do not divide the 10 I/O nodes).  "Bit-identical" means
// every counter and every derived double, including the full per-job
// hit-rate CDF.  A second fixture replays the Daly checkpoint source, whose
// ops are all one-touch: there every kernel runs on counted runs only.
//
// This is the contract that lets the grouped runner be the only sweep path
// (figures, benches, the perf harness) without a fidelity re-audit: same
// bits in, same bits out, only faster.
//
// The OneTouch tests here check the runner's one-touch marks on both logs
// against a brute-force count of every block's accessing ops.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "analysis/session.hpp"
#include "cache/simulators.hpp"
#include "core/study.hpp"
#include "support/materialized_study.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "workload/source.hpp"

namespace charisma::cache {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 42;

/// One real study shared by every test of its source; the reference
/// results are computed once (one direct simulation per config) and reused
/// by each comparison.
struct Fixture {
  oracle::StudyOutput output;
  std::set<SessionKey> read_only;
  std::vector<ComputeCacheConfig> compute_configs;
  std::vector<IoNodeSimConfig> io_configs;
  std::vector<ComputeCacheResult> compute_reference;
  std::vector<IoNodeSimResult> io_reference;

  explicit Fixture(const core::StudyConfig& config)
      : output(oracle::run_study(config)) {
    const analysis::SessionStore store(output.sorted);
    read_only = store.read_only_sessions();
    compute_configs = make_compute_configs();
    io_configs = make_io_configs();
    for (const ComputeCacheConfig& c : compute_configs) {
      compute_reference.push_back(
          simulate_compute_cache(output.sorted, read_only, c));
    }
    for (const IoNodeSimConfig& c : io_configs) {
      io_reference.push_back(simulate_io_cache(output.sorted, read_only, c));
    }
  }

  /// The fig 8 grid the perf harness sweeps, plus a duplicate point (the
  /// grouped path must fan one simulated point out to both slots).
  static std::vector<ComputeCacheConfig> make_compute_configs() {
    std::vector<ComputeCacheConfig> configs;
    for (const std::size_t buffers : {1u, 10u, 50u, 10u}) {
      ComputeCacheConfig cfg;
      cfg.buffers_per_node = buffers;
      configs.push_back(cfg);
    }
    return configs;
  }

  /// Every shape the fig 9 / §4.8 benches and the perf harness sweep:
  /// the buffer grid under LRU, FIFO and IP-aware, the io-node spread,
  /// the §4.8 front-cache pair, and capacity edge cases (total_buffers
  /// below io_nodes -> zero per-node buffers; duplicated totals).
  static std::vector<IoNodeSimConfig> make_io_configs() {
    std::vector<IoNodeSimConfig> configs;
    for (const std::size_t buffers : {100u, 500u, 2000u, 8000u, 500u}) {
      for (const Policy policy :
           {Policy::kLru, Policy::kFifo, Policy::kInterprocessAware}) {
        IoNodeSimConfig cfg;
        cfg.total_buffers = buffers;
        cfg.policy = policy;
        configs.push_back(cfg);
      }
    }
    for (const int io : {1, 2, 5, 10, 20}) {
      IoNodeSimConfig cfg;
      cfg.total_buffers = 4000;
      cfg.io_nodes = io;
      configs.push_back(cfg);
    }
    for (const std::size_t front : {0u, 1u}) {
      IoNodeSimConfig cfg;  // §4.8 combined-cache pair
      cfg.total_buffers = 500;
      cfg.compute_buffers_per_node = front;
      configs.push_back(cfg);
    }
    IoNodeSimConfig tiny;  // rounds to zero buffers per node
    tiny.total_buffers = 3;
    configs.push_back(tiny);
    return configs;
  }
};

core::StudyConfig study_config(const std::string& source) {
  core::StudyConfig config;
  config.workload.scale = kScale;
  config.workload.seed = kSeed;
  config.source = workload::parse_source_spec(source);
  return config;
}

const Fixture& fixture() {
  static const Fixture f(study_config("synthetic"));
  return f;
}

/// The Daly checkpoint-restart source: few multi-MB sequential writes that
/// never touch a block twice.
const Fixture& checkpoint_fixture() {
  static const Fixture f(study_config("checkpoint"));
  return f;
}

void expect_identical(const util::Cdf& a, const util::Cdf& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.points()[i].x, b.points()[i].x) << "point " << i;
    EXPECT_EQ(a.points()[i].cumulative_fraction,
              b.points()[i].cumulative_fraction)
        << "point " << i;
  }
}

void expect_identical(const ComputeCacheResult& a, const ComputeCacheResult& b,
                      std::size_t config) {
  SCOPED_TRACE("compute config " + std::to_string(config));
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.job_hit_rates, b.job_hit_rates);
  EXPECT_EQ(a.fraction_jobs_zero, b.fraction_jobs_zero);
  EXPECT_EQ(a.fraction_jobs_above_75, b.fraction_jobs_above_75);
  EXPECT_EQ(a.overall_hit_rate(), b.overall_hit_rate());
  expect_identical(a.hit_rate_cdf, b.hit_rate_cdf);
  EXPECT_EQ(a.describe(), b.describe());
}

void expect_identical(const IoNodeSimResult& a, const IoNodeSimResult& b,
                      std::size_t config) {
  SCOPED_TRACE("io config " + std::to_string(config));
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.request_hits, b.request_hits);
  EXPECT_EQ(a.block_accesses, b.block_accesses);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.filtered_by_compute, b.filtered_by_compute);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.block_hit_rate, b.block_hit_rate);
  EXPECT_EQ(a.describe(), b.describe());
}

void expect_matches_reference(const SweepRunner& runner,
                              const Fixture& f = fixture()) {
  const auto compute = runner.run_compute(f.compute_configs);
  ASSERT_EQ(compute.size(), f.compute_configs.size());
  for (std::size_t i = 0; i < compute.size(); ++i) {
    expect_identical(f.compute_reference[i], compute[i], i);
  }
  const auto io = runner.run_io(f.io_configs);
  ASSERT_EQ(io.size(), f.io_configs.size());
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_identical(f.io_reference[i], io[i], i);
  }
}

TEST(SweepDifferential, GroupedMatchesPerConfigSerially) {
  const Fixture& f = fixture();
  const SweepRunner serial(f.output.sorted, f.read_only);
  expect_matches_reference(serial);
}

TEST(SweepDifferential, GroupedMatchesPerConfigAcrossThreadCounts) {
  const Fixture& f = fixture();
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    const SweepRunner runner(f.output.sorted, f.read_only, pool);
    expect_matches_reference(runner);
  }
}

TEST(SweepDifferential, PlansCoverEveryConfigWithFewerPasses) {
  const Fixture& f = fixture();
  const SweepPlan compute_plan = plan_compute_sweep(f.compute_configs);
  EXPECT_EQ(compute_plan.configs(), f.compute_configs.size());
  EXPECT_EQ(compute_plan.passes(), 1u);       // one block size -> one pass
  EXPECT_EQ(compute_plan.simulated_points(), 3u);  // {1, 10, 50}, 10 deduped

  const SweepPlan io_plan = plan_io_sweep(f.io_configs);
  EXPECT_EQ(io_plan.configs(), f.io_configs.size());
  EXPECT_LT(io_plan.passes(), f.io_configs.size() / 2);
  std::size_t stack_passes = 0;
  std::size_t batched_passes = 0;
  std::size_t multi_passes = 0;
  for (const SweepGroup& g : io_plan.groups) {
    if (g.kind == SweepGroup::Kind::kStack) ++stack_passes;
    if (g.kind == SweepGroup::Kind::kBatched) ++batched_passes;
    if (g.kind == SweepGroup::Kind::kMulti) ++multi_passes;
    if (g.kind != SweepGroup::Kind::kReplay) {
      EXPECT_GT(g.configs, 1u);
    }
    EXPECT_LE(g.simulated, g.configs);
  }
  // The main grid: one LRU stack pass; FIFO and IP-aware batched passes.
  // The five leftovers (the io-node spread minus io=10, plus the front=1
  // point) fuse into one multi-topology pass instead of five replays.
  EXPECT_EQ(stack_passes, 1u);
  EXPECT_EQ(batched_passes, 2u);
  EXPECT_EQ(multi_passes, 1u);
  EXPECT_EQ(io_plan.passes(), 4u);
  EXPECT_FALSE(io_plan.describe().empty());
}

TEST(SweepDifferential, CheckpointLogMatchesPerConfig) {
  // Every op of the checkpoint log is one-touch, so the grouped kernels
  // replay it on counted runs alone, against references that step every
  // block.
  const Fixture& f = checkpoint_fixture();
  const SweepRunner serial(f.output.sorted, f.read_only);
  ASSERT_GT(serial.replay_ops(), 0u);
  EXPECT_EQ(serial.one_touch().ops, serial.replay_ops());
  EXPECT_EQ(serial.one_touch().block_frac(), 1.0);
  expect_matches_reference(serial, f);
  for (const std::size_t threads : {3u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    const SweepRunner runner(f.output.sorted, f.read_only, pool);
    expect_matches_reference(runner, f);
  }
}

/// Per op, whether it is one-touch, by brute force: count the ops that
/// touch each (file, block) key, and an op is one-touch when all its keys
/// count one.
std::vector<bool> brute_force_one_touch(
    const std::vector<detail::ReplayOp>& ops) {
  std::unordered_map<BlockKey, std::uint32_t, BlockKeyHash> touches;
  for (const detail::ReplayOp& op : ops) {
    const detail::BlockSpan span = detail::span_of(op, util::kBlockSize);
    for (std::int64_t b = span.first; b <= span.last; ++b) {
      ++touches[{op.file, b}];
    }
  }
  std::vector<bool> out;
  for (const detail::ReplayOp& op : ops) {
    const detail::BlockSpan span = detail::span_of(op, util::kBlockSize);
    bool once = true;
    for (std::int64_t b = span.first; b <= span.last && once; ++b) {
      once = touches[{op.file, b}] == 1;
    }
    out.push_back(once);
  }
  return out;
}

/// The marks a sweep runner's log carries and its tallies both equal the
/// brute-force count.
void expect_marks_match_brute_force(const Fixture& f) {
  const auto ops = detail::prepare_replay(f.output.sorted, f.read_only);
  const std::vector<bool> want = brute_force_one_touch(ops);
  ReplayLog log(ops);
  log.mark_one_touch();
  std::vector<bool> got;
  // Audited: ReplayLog traversals run the lambda inline on this thread.
  // NOLINTNEXTLINE(charisma-shared-capture)
  log.for_each([&got](const auto& op) { got.push_back(op.one_touch); });
  ASSERT_EQ(got.size(), want.size());
  OneTouchStats tally;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "op " << i;
    const detail::BlockSpan span = detail::span_of(ops[i], util::kBlockSize);
    const auto blocks = static_cast<std::uint64_t>(span.last - span.first + 1);
    tally.total_blocks += blocks;
    if (want[i]) {
      ++tally.ops;
      tally.blocks += blocks;
    }
  }
  const SweepRunner runner(f.output.sorted, f.read_only);
  EXPECT_EQ(runner.one_touch().ops, tally.ops);
  EXPECT_EQ(runner.one_touch().blocks, tally.blocks);
  EXPECT_EQ(runner.one_touch().total_blocks, tally.total_blocks);
  EXPECT_GE(runner.one_touch().mark_ms, 0.0);
}

TEST(OneTouch, MarksMatchBruteForceOnTheSyntheticLog) {
  const Fixture& f = fixture();
  expect_marks_match_brute_force(f);
  // The synthetic log mixes both kinds of op.
  const SweepRunner runner(f.output.sorted, f.read_only);
  EXPECT_GT(runner.one_touch().ops, 0u);
  EXPECT_LT(runner.one_touch().ops, runner.replay_ops());
}

TEST(OneTouch, MarksMatchBruteForceOnTheCheckpointLog) {
  expect_marks_match_brute_force(checkpoint_fixture());
}

}  // namespace
}  // namespace charisma::cache
