// Figure 9: trace-driven simulation of I/O-node caching — hit rate vs
// number of 4 KB buffers, LRU vs FIFO, 1..20 I/O nodes.
#include "common.hpp"

namespace charisma::bench {
namespace {

cache::IoNodeSimConfig point(std::size_t buffers, cache::Policy policy,
                             int io_nodes) {
  cache::IoNodeSimConfig cfg;
  cfg.total_buffers = buffers;
  cfg.policy = policy;
  cfg.io_nodes = io_nodes;
  return cfg;
}

void reproduce() {
  auto& ctx = Context::instance();
  // The whole figure as one sweep: 9 buffer counts x {LRU, FIFO} at 10 I/O
  // nodes, then the spread sensitivity at 4000 buffers.  SweepRunner fans
  // the replays over --threads workers and returns them in config order, so
  // the printed tables are identical for every thread count.
  const std::size_t buffer_counts[] = {100,  250,  500,   1000,  2000,
                                       4000, 8000, 16000, 25000};
  constexpr std::size_t kCounts = std::size(buffer_counts);
  const int spreads[] = {1, 2, 5, 10, 20};
  std::vector<cache::IoNodeSimConfig> configs;
  for (const std::size_t buffers : buffer_counts) {
    configs.push_back(point(buffers, cache::Policy::kLru, 10));
    configs.push_back(point(buffers, cache::Policy::kFifo, 10));
  }
  for (const int io : spreads) {
    configs.push_back(point(4000, cache::Policy::kLru, io));
  }
  const std::vector<cache::IoNodeSimResult> results =
      ctx.sweeps().run_io(configs);
  const auto lru_at = [&](std::size_t i) { return results[2 * i].hit_rate; };
  const auto fifo_at = [&](std::size_t i) {
    return results[2 * i + 1].hit_rate;
  };
  const auto spread_at = [&](std::size_t i) {
    return results[2 * kCounts + i].hit_rate;
  };

  // The paper's main curve: hit rate vs total buffers, 10 I/O nodes.
  util::Table curve({"4K buffers", "LRU hit rate", "FIFO hit rate"});
  double lru90 = -1, fifo90 = -1;
  const double plateau = lru_at(kCounts - 1);
  for (std::size_t i = 0; i < kCounts; ++i) {
    curve.add_row({std::to_string(buffer_counts[i]),
                   util::fmt(lru_at(i), 3), util::fmt(fifo_at(i), 3)});
    if (lru90 < 0 && lru_at(i) >= 0.9 * plateau) {
      lru90 = static_cast<double>(buffer_counts[i]);
    }
    if (fifo90 < 0 && fifo_at(i) >= 0.9 * plateau) {
      fifo90 = static_cast<double>(buffer_counts[i]);
    }
  }
  std::printf("%s\n", curve.render().c_str());

  // Sensitivity to the number of I/O nodes the buffers are spread over.
  util::Table spread({"I/O nodes", "LRU hit rate (4000 buffers)"});
  for (std::size_t i = 0; i < std::size(spreads); ++i) {
    spread.add_row({std::to_string(spreads[i]),
                    util::fmt(spread_at(i), 3)});
  }
  std::printf("%s\n", spread.render().c_str());

  Comparison cmp("Figure 9: I/O-node caching");
  cmp.row("LRU buffers to approach the plateau", "~4000",
          lru90 > 0 ? util::fmt(lru90, 0) : ">25000");
  cmp.row("FIFO needs more buffers than LRU", "~20000 for the same hit rate",
          fifo90 > 0 ? util::fmt(fifo90, 0) : ">25000");
  cmp.row("hit rate at 4000 buffers (LRU)", "~90%",
          util::fmt(spread_at(3) * 100.0) + "%");
  cmp.row("sensitivity to I/O-node split", "little difference",
          util::fmt((spread_at(0) - spread_at(4)) * 100.0, 2) +
              " points between 1 and 20 I/O nodes");
  cmp.print();
}

void BM_IoNodeCacheSim(benchmark::State& state) {
  auto& ctx = Context::instance();
  cache::IoNodeSimConfig cfg;
  cfg.total_buffers = static_cast<std::size_t>(state.range(0));
  cfg.policy = state.range(1) == 0 ? cache::Policy::kLru : cache::Policy::kFifo;
  const cache::SweepRunner& sweeps = ctx.sweeps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweeps.run_io({cfg}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sweeps.replay_ops()) *
                          state.iterations());
}
BENCHMARK(BM_IoNodeCacheSim)
    ->Args({4000, 0})
    ->Args({4000, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Figure 9 (I/O-node caching)", charisma::bench::reproduce)
