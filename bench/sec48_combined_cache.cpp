// §4.8 (final experiment): one-block compute-node buffers in front of
// 50-buffer I/O-node caches.  The paper saw the I/O-node hit rate drop only
// ~3%, implying its hits were mostly interprocess.
#include "common.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();
  // Both configurations go through one sweep; results come back in config
  // order no matter how many --threads the runner uses.
  std::vector<cache::IoNodeSimConfig> configs(2);
  for (auto& cfg : configs) {
    cfg.io_nodes = 10;
    cfg.total_buffers = 500;  // 50 buffers per I/O node
  }
  configs[1].compute_buffers_per_node = 1;
  const std::vector<cache::IoNodeSimResult> results =
      ctx.sweeps().run_io(configs);
  const cache::IoNodeSimResult& io_only = results[0];
  const cache::IoNodeSimResult& combined = results[1];

  util::Table t({"configuration", "I/O-node hit rate",
                 "requests absorbed up front"});
  t.add_row({"10 x 50-buffer I/O caches alone",
             util::fmt(io_only.hit_rate * 100.0) + "%", "0"});
  t.add_row({"+ 1-block compute-node buffers",
             util::fmt(combined.hit_rate * 100.0) + "%",
             std::to_string(combined.filtered_by_compute)});
  std::printf("%s\n", t.render().c_str());

  Comparison cmp("S4.8: combined compute-node + I/O-node caches");
  cmp.percent_row("I/O-node hit-rate drop with front caches",
                  analysis::paper::kCombinedHitRateDrop,
                  io_only.hit_rate - combined.hit_rate);
  cmp.row("conclusion", "I/O-node hits mostly interprocess",
          util::fmt(100.0 * (1.0 - (io_only.hit_rate - combined.hit_rate) /
                                       std::max(io_only.hit_rate, 1e-9))) +
              "% of the hit rate survives the front caches");
  cmp.print();
}

void BM_CombinedCacheSim(benchmark::State& state) {
  auto& ctx = Context::instance();
  cache::IoNodeSimConfig cfg;
  cfg.io_nodes = 10;
  cfg.total_buffers = 500;
  cfg.compute_buffers_per_node = 1;
  const cache::SweepRunner& sweeps = ctx.sweeps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweeps.run_io({cfg}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sweeps.replay_ops()) *
                          state.iterations());
}
BENCHMARK(BM_CombinedCacheSim)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("S4.8 (combined caches)", charisma::bench::reproduce)
