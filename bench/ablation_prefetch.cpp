// Ablation D: prefetching and write-behind at the I/O nodes.
// The paper's related work (§2.3): caching+prefetching helps multiprocessor
// file systems [Kotz & Ellis]; even Miller & Katz's cache-resistant Cray
// workload benefited from prefetching and write-behind.  This bench
// quantifies both on the CHARISMA trace.
#include "common.hpp"

#include "cache/prefetch.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  auto& ctx = Context::instance();

  util::Table t({"prefetch depth", "hit rate", "prefetches", "accuracy"});
  double base = 0.0, best = 0.0;
  for (int depth : {0, 1, 2, 4, 8}) {
    cache::PrefetchConfig cfg;
    cfg.prefetch_depth = depth;
    const auto r = cache::simulate_prefetch(ctx.trace(), cfg);
    if (depth == 0) base = r.hit_rate;
    best = std::max(best, r.hit_rate);
    t.add_row({std::to_string(depth), util::fmt(r.hit_rate, 3),
               std::to_string(r.prefetches_issued),
               util::fmt(r.prefetch_accuracy, 2)});
  }
  std::printf("I/O-node cache with sequential-detector prefetching:\n%s\n",
              t.render().c_str());

  util::Table wb({"write-behind buffers/node", "disk writes", "reduction"});
  std::uint64_t through = 0;
  double best_wb = 0.0;
  for (std::size_t buffers : {1u, 10u, 50u, 200u}) {
    cache::WriteBehindConfig cfg;
    cfg.buffers_per_node = buffers;
    const auto r = cache::simulate_write_behind(ctx.trace(), cfg);
    through = r.disk_writes_through;
    best_wb = std::max(best_wb, r.reduction());
    wb.add_row({std::to_string(buffers), std::to_string(r.disk_writes_behind),
                util::fmt(r.reduction() * 100.0) + "%"});
  }
  std::printf("write-behind vs %llu write-through block writes:\n%s\n",
              static_cast<unsigned long long>(through), wb.render().c_str());

  Comparison cmp("Ablation D: prefetch + write-behind (S2.3)");
  cmp.row("prefetching helps sequential workloads",
          "Miller & Katz saw benefit even without cache wins",
          "hit rate " + util::fmt(base * 100.0) + "% -> " +
              util::fmt(best * 100.0) + "%");
  cmp.row("write-behind combines small requests",
          "'combine several small requests into a few larger'",
          util::fmt(best_wb * 100.0) + "% fewer disk writes");
  cmp.print();
}

void BM_PrefetchSim(benchmark::State& state) {
  auto& ctx = Context::instance();
  cache::PrefetchConfig cfg;
  cfg.prefetch_depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::simulate_prefetch(ctx.trace(), cfg));
  }
}
BENCHMARK(BM_PrefetchSim)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_WriteBehindSim(benchmark::State& state) {
  auto& ctx = Context::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache::simulate_write_behind(ctx.trace(), {}));
  }
}
BENCHMARK(BM_WriteBehindSim)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation D (prefetch + write-behind)",
                    charisma::bench::reproduce)
