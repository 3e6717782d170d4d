// Cache tuning: replay one trace through the trace-driven cache simulators
// at many design points and print the resulting design-space table — the
// workflow a file-system designer would use this library for.
//
//   cache_tuning [--scale=0.1] [--seed=42]
#include <cstdio>

#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace charisma;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"scale", "seed"});
  core::StudyConfig config;
  config.workload.scale = flags.get_double("scale", 0.1);
  config.workload.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));

  std::printf("generating trace at scale %.2f...\n", config.workload.scale);
  core::StreamedStudyOutput study = core::run_streamed_study(config);
  // One runner over the study's replay ops serves every design point; it
  // fans the sweep over the pool and returns results in config order.
  util::ThreadPool pool;
  const cache::SweepRunner sweeps(std::move(study.replay_ops),
                                  study.sessions.read_only_sessions(), pool);

  // Sweep the I/O-node cache design space.
  const std::vector<std::size_t> sizes = {250, 1000, 4000, 16000};
  const std::vector<cache::Policy> policies = {
      cache::Policy::kLru, cache::Policy::kFifo,
      cache::Policy::kInterprocessAware};
  std::vector<cache::IoNodeSimConfig> io_configs;
  for (const cache::Policy policy : policies) {
    for (const std::size_t buffers : sizes) {
      cache::IoNodeSimConfig cfg;
      cfg.total_buffers = buffers;
      cfg.policy = policy;
      cfg.io_nodes = 10;
      io_configs.push_back(cfg);
    }
  }
  const auto io = sweeps.run_io(io_configs);

  util::Table t({"policy", "250 buf", "1000 buf", "4000 buf", "16000 buf"});
  for (std::size_t p = 0; p < policies.size(); ++p) {
    std::vector<std::string> row{to_string(policies[p])};
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      row.push_back(util::fmt(io[p * sizes.size() + s].hit_rate * 100.0) +
                    "%");
    }
    t.add_row(std::move(row));
  }
  std::printf("\nI/O-node cache hit rate by design point:\n%s\n",
              t.render().c_str());

  // And the compute-node side: is one buffer really enough?
  const std::vector<std::size_t> buffer_counts = {1, 4, 50};
  std::vector<cache::ComputeCacheConfig> compute_configs;
  for (const std::size_t buffers : buffer_counts) {
    cache::ComputeCacheConfig cfg;
    cfg.buffers_per_node = buffers;
    compute_configs.push_back(cfg);
  }
  const auto compute = sweeps.run_compute(compute_configs);
  util::Table c({"buffers per node", "jobs at 0%", "jobs > 75%",
                 "overall hit rate"});
  for (std::size_t i = 0; i < compute.size(); ++i) {
    const auto& r = compute[i];
    c.add_row({std::to_string(buffer_counts[i]),
               util::fmt(r.fraction_jobs_zero * 100.0) + "%",
               util::fmt(r.fraction_jobs_above_75 * 100.0) + "%",
               util::fmt(r.overall_hit_rate() * 100.0) + "%"});
  }
  std::printf("compute-node cache (read-only files, LRU):\n%s\n",
              c.render().c_str());
  std::printf(
      "reading: if the per-node rows barely differ, the paper's \"a single "
      "one-block buffer per compute node may be useful\" holds here too.\n");
  return 0;
}
