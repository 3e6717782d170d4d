// Figure 8: trace-driven simulation of compute-node caching (one-block
// read-only buffers, LRU), reported as a CDF of per-job hit rates.
#include "common.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();
  std::vector<cache::ComputeCacheConfig> configs(3);
  const std::size_t buffer_counts[3] = {1, 10, 50};
  for (int i = 0; i < 3; ++i) {
    configs[static_cast<std::size_t>(i)].buffers_per_node = buffer_counts[i];
  }
  // One parallel sweep over all three buffer counts; results come back in
  // config order regardless of --threads.
  const std::vector<cache::ComputeCacheResult> results =
      ctx.sweeps().run_compute(configs);

  util::Table curve({"hit rate <=", "1 buffer", "10 buffers", "50 buffers"});
  for (double x : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    curve.add_row({util::fmt(x * 100.0) + "%",
                   util::fmt(results[0].hit_rate_cdf.at(x), 3),
                   util::fmt(results[1].hit_rate_cdf.at(x), 3),
                   util::fmt(results[2].hit_rate_cdf.at(x), 3)});
  }
  std::printf("CDF of per-job hit rates:\n%s\n", curve.render().c_str());

  Comparison cmp("Figure 8: compute-node caching");
  cmp.percent_row("jobs with hit rate > 75% (1 buffer)",
                  analysis::paper::kJobsAboveHitRate75,
                  results[0].fraction_jobs_above_75);
  cmp.percent_row("jobs with 0% hit rate (1 buffer)",
                  analysis::paper::kJobsAtZeroHitRate,
                  results[0].fraction_jobs_zero);
  cmp.row("one buffer vs many", "one buffer as good as many",
          "overall hit rate 1/10/50 buf: " +
              util::fmt(results[0].overall_hit_rate() * 100.0) + "/" +
              util::fmt(results[1].overall_hit_rate() * 100.0) + "/" +
              util::fmt(results[2].overall_hit_rate() * 100.0) + "%");
  cmp.print();
}

void BM_ComputeCacheSim(benchmark::State& state) {
  auto& ctx = Context::instance();
  cache::ComputeCacheConfig cfg;
  cfg.buffers_per_node = static_cast<std::size_t>(state.range(0));
  const cache::SweepRunner& sweeps = ctx.sweeps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweeps.run_compute({cfg}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sweeps.replay_ops()) *
                          state.iterations());
}
BENCHMARK(BM_ComputeCacheSim)->Arg(1)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Figure 8 (compute-node caching)",
                    charisma::bench::reproduce)
