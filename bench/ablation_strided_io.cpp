// Ablation A (paper §5 recommendation): strided I/O requests.
// Rewrites every per-node request stream into maximal strided requests and
// measures how many requests and I/O-node messages disappear.
#include "common.hpp"

#include "core/strided.hpp"

namespace charisma::bench {
namespace {

void reproduce() {
  // The rewriter ran as a sink of the study's merge.
  const auto& stats = Context::instance().strided();
  std::printf("%s\n", stats.render().c_str());

  Comparison cmp("Ablation A: strided requests (S5)");
  cmp.row("claim", "strided requests effectively increase request size",
          "mean requests per stride: " +
              util::fmt(static_cast<double>(stats.original_requests) /
                        static_cast<double>(std::max<std::uint64_t>(
                            stats.strided_requests, 1))));
  cmp.percent_row("request-count reduction", 0.90,  // "(common) regularity"
                  stats.request_reduction());
  cmp.row("I/O-node message reduction", "lower overhead, fewer messages",
          util::fmt(stats.message_reduction() * 100.0) + "%");
  cmp.print();
  std::printf(
      "note: the paper gives no number for this — 90%% stands in for "
      "\"regular request and interval sizes were common\" (Tables 2/3).\n\n");
}

void BM_StridedRewrite(benchmark::State& state) {
  auto& ctx = Context::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::rewrite_strided(
        ctx.trace(), 10, util::kBlockSize));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(ctx.trace().records.size()) *
      state.iterations());
}
BENCHMARK(BM_StridedRewrite)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace charisma::bench

CHARISMA_BENCH_MAIN("Ablation A (strided I/O)", charisma::bench::reproduce)
