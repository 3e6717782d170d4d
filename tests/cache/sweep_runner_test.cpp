#include "cache/simulators.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "trace/spill.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace charisma::cache {
namespace {

using trace::EventKind;

trace::Record data(EventKind kind, cfs::JobId job, cfs::NodeId node,
                   cfs::FileId file, std::int64_t offset, std::int64_t bytes) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  return r;
}

// A mixed synthetic trace: several jobs, shared and private files, reads and
// writes, enough volume that the sweep actually chunks across threads.
trace::SortedTrace mixed_trace() {
  trace::SortedTrace t;
  util::Rng rng(17);
  for (int i = 0; i < 20000; ++i) {
    const auto job = static_cast<cfs::JobId>(1 + rng.uniform(4));
    const auto node = static_cast<cfs::NodeId>(rng.uniform(8));
    const auto file = static_cast<cfs::FileId>(1 + rng.uniform(6));
    const auto block = static_cast<std::int64_t>(rng.uniform(512));
    const bool write = rng.chance(0.15);
    t.records.push_back(data(write ? EventKind::kWrite : EventKind::kRead,
                             job, node, file, block * 4096,
                             static_cast<std::int64_t>(64 + rng.uniform(8192))));
  }
  return t;
}

std::set<SessionKey> read_only_for(const trace::SortedTrace&) {
  // Declare a fixed subset of (job, file) sessions read-only; the sweeps
  // only need *some* sessions eligible for compute-node caching.
  std::set<SessionKey> ro;
  for (cfs::JobId job = 1; job <= 4; ++job) {
    for (cfs::FileId file = 1; file <= 3; ++file) ro.emplace(job, file);
  }
  return ro;
}

std::vector<ComputeCacheConfig> compute_points() {
  std::vector<ComputeCacheConfig> configs(3);
  configs[0].buffers_per_node = 1;
  configs[1].buffers_per_node = 10;
  configs[2].buffers_per_node = 50;
  return configs;
}

std::vector<IoNodeSimConfig> io_points() {
  std::vector<IoNodeSimConfig> configs;
  for (const std::size_t buffers : {50u, 200u, 800u}) {
    for (const Policy policy : {Policy::kLru, Policy::kFifo}) {
      IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      configs.push_back(cfg);
    }
  }
  IoNodeSimConfig combined;
  combined.total_buffers = 200;
  combined.compute_buffers_per_node = 1;
  configs.push_back(combined);
  IoNodeSimConfig ip_aware;  // ablation B: no inclusion property either
  ip_aware.total_buffers = 200;
  ip_aware.policy = Policy::kInterprocessAware;
  configs.push_back(ip_aware);
  return configs;
}

void expect_same(const ComputeCacheResult& a, const ComputeCacheResult& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.job_hit_rates, b.job_hit_rates);
  EXPECT_EQ(a.fraction_jobs_zero, b.fraction_jobs_zero);
  EXPECT_EQ(a.fraction_jobs_above_75, b.fraction_jobs_above_75);
}

void expect_same(const IoNodeSimResult& a, const IoNodeSimResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.request_hits, b.request_hits);
  EXPECT_EQ(a.block_accesses, b.block_accesses);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.filtered_by_compute, b.filtered_by_compute);
  EXPECT_EQ(a.hit_rate, b.hit_rate);
  EXPECT_EQ(a.block_hit_rate, b.block_hit_rate);
}

TEST(SweepRunner, ResultsAreInvariantUnderThreadCount) {
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const auto cc = compute_points();
  const auto io = io_points();

  util::ThreadPool one(1);
  const SweepRunner baseline(trace, ro, one);
  const auto compute_1 = baseline.run_compute(cc);
  const auto io_1 = baseline.run_io(io);
  ASSERT_EQ(compute_1.size(), cc.size());
  ASSERT_EQ(io_1.size(), io.size());

  for (const std::size_t threads : {2u, 8u}) {
    util::ThreadPool pool(threads);
    const SweepRunner runner(trace, ro, pool);
    const auto compute_n = runner.run_compute(cc);
    const auto io_n = runner.run_io(io);
    ASSERT_EQ(compute_n.size(), cc.size()) << threads << " threads";
    ASSERT_EQ(io_n.size(), io.size()) << threads << " threads";
    for (std::size_t i = 0; i < cc.size(); ++i) {
      expect_same(compute_1[i], compute_n[i]);
    }
    for (std::size_t i = 0; i < io.size(); ++i) {
      expect_same(io_1[i], io_n[i]);
    }
  }
}

TEST(SweepRunner, AgreesWithTheDirectSimulators) {
  // The prepared-replay fast path must compute exactly what the one-shot
  // entry points compute.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  util::ThreadPool pool(4);
  const SweepRunner runner(trace, ro, pool);

  const auto cc = compute_points();
  const auto compute = runner.run_compute(cc);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(compute[i], simulate_compute_cache(trace, ro, cc[i]));
  }
  const auto io = io_points();
  const auto io_results = runner.run_io(io);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(io_results[i], simulate_io_cache(trace, ro, io[i]));
  }
}

TEST(SweepRunner, GroupedModeMatchesPerConfigMode) {
  // The serial runner's grouped passes against one direct (per-config)
  // simulation per point.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const SweepRunner runner(trace, ro);  // serial: no pool needed

  const auto cc = compute_points();
  const auto compute_grp = runner.run_compute(cc);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(simulate_compute_cache(trace, ro, cc[i]), compute_grp[i]);
  }
  const auto io = io_points();
  const auto io_grp = runner.run_io(io);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(simulate_io_cache(trace, ro, io[i]), io_grp[i]);
  }
}

TEST(SweepRunner, PlansDescribeTheGroupedPasses) {
  const SweepPlan compute_plan = plan_compute_sweep(compute_points());
  EXPECT_EQ(compute_plan.passes(), 1u);
  EXPECT_EQ(compute_plan.configs(), 3u);
  EXPECT_EQ(compute_plan.simulated_points(), 3u);
  ASSERT_EQ(compute_plan.groups.size(), 1u);
  EXPECT_EQ(compute_plan.groups[0].kind, SweepGroup::Kind::kStack);

  // io_points(): 3 buffer counts x {LRU, FIFO} + a §4.8 front point + an
  // IP-aware point -> one LRU stack pass, one FIFO batched pass, and the
  // two single-point leftovers fused into one multi pass.
  const SweepPlan io_plan = plan_io_sweep(io_points());
  EXPECT_EQ(io_plan.configs(), 8u);
  EXPECT_EQ(io_plan.passes(), 3u);
  std::size_t stack = 0, batched = 0, replay = 0, multi = 0;
  for (const SweepGroup& g : io_plan.groups) {
    switch (g.kind) {
      case SweepGroup::Kind::kStack: ++stack; break;
      case SweepGroup::Kind::kBatched: ++batched; break;
      case SweepGroup::Kind::kReplay: ++replay; break;
      case SweepGroup::Kind::kMulti:
        ++multi;
        EXPECT_EQ(g.configs, 2u);
        EXPECT_EQ(g.simulated, 2u);
        break;
    }
  }
  EXPECT_EQ(stack, 1u);
  EXPECT_EQ(batched, 1u);
  EXPECT_EQ(replay, 0u);  // singletons fold away whenever there are >= 2
  EXPECT_EQ(multi, 1u);
  EXPECT_FALSE(io_plan.describe().empty());
}

TEST(SweepRunner, SerialRunnerMatchesPooledRunner) {
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  util::ThreadPool pool(4);
  const SweepRunner pooled(trace, ro, pool);
  const SweepRunner serial(trace, ro);
  EXPECT_EQ(serial.replay_ops(), pooled.replay_ops());

  const auto cc = compute_points();
  const auto io = io_points();
  const auto compute_s = serial.run_compute(cc);
  const auto compute_p = pooled.run_compute(cc);
  for (std::size_t i = 0; i < cc.size(); ++i) {
    expect_same(compute_s[i], compute_p[i]);
  }
  const auto io_s = serial.run_io(io);
  const auto io_p = pooled.run_io(io);
  for (std::size_t i = 0; i < io.size(); ++i) {
    expect_same(io_s[i], io_p[i]);
  }
}

TEST(SweepRunner, PassesExecutedLedgerMatchesThePlan) {
  // The grouping claim is "fewer trace passes for the same results";
  // passes_executed() is the ledger that makes it checkable.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const auto cc = compute_points();
  const auto io = io_points();

  const SweepRunner grouped(trace, ro);
  EXPECT_EQ(grouped.passes_executed(), 0u);
  (void)grouped.run_compute(cc);
  EXPECT_EQ(grouped.passes_executed(), plan_compute_sweep(cc).passes());
  (void)grouped.run_io(io);
  EXPECT_EQ(grouped.passes_executed(),
            plan_compute_sweep(cc).passes() + plan_io_sweep(io).passes());
  // A per-config replay would take one pass per config — strictly more.
  EXPECT_LT(grouped.passes_executed(), cc.size() + io.size());

  // The ledger is schedule-independent: a pooled runner counts the same.
  util::ThreadPool pool(4);
  const SweepRunner pooled(trace, ro, pool);
  (void)pooled.run_compute(cc);
  (void)pooled.run_io(io);
  EXPECT_EQ(pooled.passes_executed(), grouped.passes_executed());
}

TEST(SweepRunner, PreparesOnlyDataRequests) {
  trace::SortedTrace t;
  t.records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 100));
  t.records.push_back(data(EventKind::kWrite, 1, 0, 1, 0, 100));
  t.records.push_back(data(EventKind::kRead, 1, 0, 1, 0, 0));  // empty: dropped
  t.records.push_back(data(EventKind::kOpen, 1, 0, 1, 0, 0));
  util::ThreadPool pool(1);
  const SweepRunner runner(t, {}, pool);
  EXPECT_EQ(runner.replay_ops(), 2u);
}

TEST(SweepRunner, EmptyConfigListsYieldEmptyResults) {
  trace::SortedTrace t;
  util::ThreadPool pool(1);
  const SweepRunner runner(t, {}, pool);
  EXPECT_TRUE(runner.run_compute({}).empty());
  EXPECT_TRUE(runner.run_io({}).empty());
}

/// The replay-op spill a streamed study's merge would produce for `trace`.
ReplayOpSpill spill_of(const trace::SortedTrace& trace,
                       trace::SpillBudget& budget) {
  ReplayOpSinkOptions options;
  options.budget = &budget;
  ReplayOpSink sink(options);
  for (const trace::Record& r : trace.records) sink.on_record(r);
  return sink.finish();
}

TEST(SweepLifetime, SpillRunnerNeedsNoReadOnlySetAfterConstruction) {
  // A spill-backed runner resolves every op's read-only flag while it is
  // built, so the set may die right after: ASan flags any later use.
  const auto trace = mixed_trace();
  const auto ro = read_only_for(trace);
  const auto cc = compute_points();
  const auto io = io_points();
  util::ThreadPool pool(3);
  // Budget 0 puts every op chunk on disk; the large one keeps them resident.
  for (const std::int64_t budget_bytes :
       {std::int64_t{0}, std::int64_t{1} << 30}) {
    SCOPED_TRACE(budget_bytes);
    trace::SpillBudget budget(budget_bytes);
    auto doomed = std::make_unique<std::set<SessionKey>>(ro);
    const SweepRunner serial(spill_of(trace, budget), *doomed);
    const SweepRunner pooled(spill_of(trace, budget), *doomed, pool);
    doomed.reset();
    for (const SweepRunner* runner : {&serial, &pooled}) {
      const auto compute = runner->run_compute(cc);
      ASSERT_EQ(compute.size(), cc.size());
      for (std::size_t i = 0; i < cc.size(); ++i) {
        expect_same(compute[i], simulate_compute_cache(trace, ro, cc[i]));
      }
      const auto io_results = runner->run_io(io);
      ASSERT_EQ(io_results.size(), io.size());
      for (std::size_t i = 0; i < io.size(); ++i) {
        expect_same(io_results[i], simulate_io_cache(trace, ro, io[i]));
      }
    }
  }
}

}  // namespace
}  // namespace charisma::cache
