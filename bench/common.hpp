// Shared scaffolding for the per-figure/table bench binaries.
//
// Every binary:
//   1. runs the streamed CHARISMA study once at --scale (default 0.2,
//      --seed 42), keeping only its finished analyses, the §5 strided
//      rewrite and one SweepRunner over the spilled replay ops — never the
//      trace itself,
//   2. prints the paper-vs-measured reproduction rows for its experiment,
//   3. runs google-benchmark timings of the underlying kernel.
//
// The cache kernels — the Figure 8/9 and §4.8 sweeps and the prefetch,
// write-behind and disk-directed ablations — all read the runner's replay
// log (sweeps().log()).
//
// Absolute counts scale with --scale; all percentages/shapes are
// scale-invariant, which is what the comparisons check.  --threads sizes
// the shared worker pool the cache-parameter sweeps fan out over (0 =
// hardware concurrency); every reported number is identical for every
// thread count.  A negative --threads or any argument neither ours nor
// google-benchmark's is a usage error: one usage line, exit 2, before the
// study runs.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "analysis/analyzers.hpp"
#include "analysis/paper.hpp"
#include "cache/simulators.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace charisma::bench {

/// The study shared by one binary's reproduction output and benchmarks.
class Context {
 public:
  static Context& instance();

  /// Must be called from main() before use.  May be called again: each call
  /// discards any study built under the previous configuration, so a
  /// configure() is never silently ignored.
  void configure(double scale, std::uint64_t seed, std::size_t threads = 0);

  /// The streamed study: its counters, header and finished analyses.
  [[nodiscard]] const core::StreamedStudyOutput& study();
  /// The study's sessions (study().sessions).
  [[nodiscard]] const analysis::SessionStore& store();
  /// The §5 strided rewrite, fed by the study's merge.
  [[nodiscard]] const core::StridedStats& strided();
  /// Worker pool sized by --threads; the sweeps fan out over it.
  [[nodiscard]] util::ThreadPool& pool();
  /// Sweep runner over the study's replay ops; its log() feeds the
  /// ablation kernels.
  [[nodiscard]] cache::SweepRunner& sweeps();
  [[nodiscard]] double scale() const noexcept { return scale_; }

 private:
  void ensure();

  double scale_ = 0.2;
  std::uint64_t seed_ = 42;
  std::size_t threads_ = 0;
  bool configured_ = false;
  bool built_ = false;
  std::optional<core::StreamedStudyOutput> study_;
  core::StridedStats strided_;
  std::optional<util::ThreadPool> pool_;
  std::optional<cache::SweepRunner> sweeps_;
};

/// A two-column paper-vs-measured comparison table builder.
class Comparison {
 public:
  explicit Comparison(std::string title);
  Comparison& row(const std::string& metric, const std::string& paper,
                  const std::string& measured);
  Comparison& row(const std::string& metric, double paper, double measured,
                  int precision = 1);
  Comparison& percent_row(const std::string& metric, double paper_fraction,
                          double measured_fraction);
  void print() const;

 private:
  std::string title_;
  util::Table table_;
};

/// Standard main body: parses --scale/--seed/--threads and the
/// google-benchmark flags, calls `reproduce`, then runs the registered
/// benchmarks.  A negative --threads or an unrecognized argument prints a
/// usage line and returns 2 before any study runs.
int bench_main(int argc, char** argv, const char* experiment,
               void (*reproduce)());

}  // namespace charisma::bench

#define CHARISMA_BENCH_MAIN(experiment, reproduce_fn)                \
  int main(int argc, char** argv) {                                  \
    return charisma::bench::bench_main(argc, argv, experiment,       \
                                       reproduce_fn);                \
  }
