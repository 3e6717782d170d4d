// Ablation B: replacement-policy design space for the I/O-node cache.
// The paper's §5: "Replacement policies other than LRU or FIFO should be
// developed ... to optimize for interprocess locality."  We compare LRU,
// FIFO, and our interprocess-aware prototype across cache sizes.
#include "common.hpp"

namespace charisma::bench {
namespace {

constexpr std::size_t kBuffers[] = {100, 250, 500, 1000, 2000, 4000, 8000};
constexpr cache::Policy kPolicies[] = {cache::Policy::kLru,
                                       cache::Policy::kFifo,
                                       cache::Policy::kInterprocessAware};

void reproduce() {
  // Every (buffers, policy) point in one sweep; results come back in config
  // order, buffers-major, for every --threads.
  std::vector<cache::IoNodeSimConfig> configs;
  for (const std::size_t buffers : kBuffers) {
    for (const cache::Policy policy : kPolicies) {
      cache::IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      cfg.io_nodes = 10;
      configs.push_back(cfg);
    }
  }
  const std::vector<cache::IoNodeSimResult> results =
      Context::instance().sweeps().run_io(configs);

  util::Table t({"4K buffers", "LRU", "FIFO", "IP-aware"});
  double best_gain = 0.0;
  std::size_t best_at = 0;
  for (std::size_t i = 0; i < std::size(kBuffers); ++i) {
    const double lru = results[3 * i].hit_rate;
    const double fifo = results[3 * i + 1].hit_rate;
    const double ip = results[3 * i + 2].hit_rate;
    t.add_row({std::to_string(kBuffers[i]), util::fmt(lru, 3),
               util::fmt(fifo, 3), util::fmt(ip, 3)});
    if (ip - lru > best_gain) {
      best_gain = ip - lru;
      best_at = kBuffers[i];
    }
  }
  std::printf("%s\n", t.render().c_str());

  Comparison cmp("Ablation B: replacement policies");
  cmp.row("paper position", "LRU beats FIFO; better policies should exist",
          best_gain > 0
              ? "IP-aware beats LRU by " +
                    util::fmt(best_gain * 100.0, 2) + " points at " +
                    std::to_string(best_at) + " buffers"
              : "IP-aware never beats LRU on this trace");
  cmp.print();
}

void BM_PolicySim(benchmark::State& state) {
  auto& ctx = Context::instance();
  cache::IoNodeSimConfig cfg;
  cfg.total_buffers = 2000;
  cfg.io_nodes = 10;
  cfg.policy = static_cast<cache::Policy>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache::simulate_io_cache(ctx.trace(), ctx.read_only(), cfg));
  }
}
BENCHMARK(BM_PolicySim)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation B (replacement policies)",
                    charisma::bench::reproduce)
