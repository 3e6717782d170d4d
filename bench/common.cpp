#include "common.hpp"

#include <filesystem>

#include "util/check.hpp"

namespace charisma::bench {

Context& Context::instance() {
  static Context ctx;
  return ctx;
}

void Context::configure(double scale, std::uint64_t seed,
                        std::size_t threads) {
  // Regression guard: configure() used to only record the parameters, so a
  // second call after the study was built was silently ignored and the
  // caller kept measuring the old (scale, seed).  Now every call tears the
  // built state down so the next accessor rebuilds under the new
  // configuration.
  scale_ = scale;
  seed_ = seed;
  threads_ = threads;
  configured_ = true;
  built_ = false;
  sweeps_.reset();  // runs on pool_; must go first
  study_.reset();
  strided_ = {};
  pool_.reset();
}

void Context::ensure() {
  CHECK(configured_, "bench::Context used before configure()");
  if (built_) return;
  std::printf("[charisma] running study at scale %.3f (seed %llu)...\n",
              scale_, static_cast<unsigned long long>(seed_));
  std::fflush(stdout);
  core::StudyConfig config;
  config.workload.scale = scale_;
  config.workload.seed = seed_;
  // The geometry the collector stamps into the trace header.
  core::StridedRewriter strided(config.machine.io_nodes, util::kBlockSize);
  core::StreamOptions options;
  options.sinks = {&strided};
  study_ = core::run_streamed_study(config, options);
  strided_ = strided.finish();
  sweeps_.emplace(std::move(study_->replay_ops),
                  study_->sessions.read_only_sessions(), pool());
  std::printf("[charisma] %llu trace events, %zu file sessions\n\n",
              static_cast<unsigned long long>(study_->streamed_records),
              study_->sessions.sessions().size());
  built_ = true;
}

const core::StreamedStudyOutput& Context::study() {
  ensure();
  return *study_;
}

const analysis::SessionStore& Context::store() {
  ensure();
  return study_->sessions;
}

const core::StridedStats& Context::strided() {
  ensure();
  return strided_;
}

util::ThreadPool& Context::pool() {
  CHECK(configured_, "bench::Context used before configure()");
  if (!pool_) pool_.emplace(threads_);
  return *pool_;
}

cache::SweepRunner& Context::sweeps() {
  ensure();
  return *sweeps_;
}

Comparison::Comparison(std::string title)
    : title_(std::move(title)),
      table_({"metric", "paper (1994)", "this reproduction"}) {}

Comparison& Comparison::row(const std::string& metric,
                            const std::string& paper,
                            const std::string& measured) {
  table_.add_row({metric, paper, measured});
  return *this;
}

Comparison& Comparison::row(const std::string& metric, double paper,
                            double measured, int precision) {
  return row(metric, util::fmt(paper, precision),
             util::fmt(measured, precision));
}

Comparison& Comparison::percent_row(const std::string& metric,
                                    double paper_fraction,
                                    double measured_fraction) {
  return row(metric, util::fmt(paper_fraction * 100.0) + "%",
             util::fmt(measured_fraction * 100.0) + "%");
}

void Comparison::print() const {
  std::printf("=== %s ===\n%s\n", title_.c_str(), table_.render().c_str());
  std::fflush(stdout);
}

int bench_main(int argc, char** argv, const char* experiment,
               void (*reproduce)()) {
  util::Flags flags(argc, argv, {"scale", "seed", "threads"});
  // google-benchmark takes its --benchmark_* flags out of the rest; anything
  // left is misspelt or unknown and must not silently run the defaults.
  int bench_argc = flags.remaining_argc();
  benchmark::Initialize(&bench_argc, flags.remaining().data());
  // A negative count would wrap to a huge pool size.
  const std::int64_t threads = flags.get_int("threads", 0);
  if (threads < 0 || bench_argc > 1) {
    std::fprintf(stderr,
                 "usage: %s [--scale=S] [--seed=N] [--threads=N] "
                 "[--benchmark_*=...]; %s%s\n",
                 std::filesystem::path(argv[0]).filename().c_str(),
                 threads < 0 ? "--threads must be >= 0"
                             : "unrecognized argument: ",
                 threads < 0 ? "" : flags.remaining()[1]);
    return 2;
  }
  Context::instance().configure(
      flags.get_double("scale", 0.2),
      static_cast<std::uint64_t>(flags.get_int("seed", 42)),
      static_cast<std::size_t>(threads));
  std::printf("==========================================================\n");
  std::printf("CHARISMA reproduction: %s\n", experiment);
  std::printf("==========================================================\n");
  reproduce();

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace charisma::bench
