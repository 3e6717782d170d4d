// Shared scaffolding for the per-figure/table bench binaries.
//
// Every binary:
//   1. runs the streamed CHARISMA study once at --scale (default 0.2,
//      --seed 42),
//   2. prints the paper-vs-measured reproduction rows for its experiment,
//   3. runs google-benchmark timings of the underlying kernel.
//
// Absolute counts scale with --scale; all percentages/shapes are
// scale-invariant, which is what the comparisons check.  --threads sizes
// the shared worker pool the cache-parameter sweeps fan out over (0 =
// hardware concurrency; a negative count is a usage error, exit 2); every
// reported number is identical for every thread count.
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
  /// The postprocessed records, collected from the study's merge by a sink,
  /// for the kernels that still take a record vector (prefetch,
  /// write-behind, disk-directed) and the google-benchmark kernel timings.
  [[nodiscard]] const trace::SortedTrace& trace();
  [[nodiscard]] const std::set<cache::SessionKey>& read_only();
  /// The §5 strided rewrite, fed by the study's merge.
  [[nodiscard]] const core::StridedStats& strided();
  /// Worker pool sized by --threads; the sweeps fan out over it.
  [[nodiscard]] util::ThreadPool& pool();
  /// Sweep runner over the study's replay ops.
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
  trace::SortedTrace trace_;
  std::set<cache::SessionKey> read_only_;
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

/// Standard main body: parses --scale/--seed/--threads, calls `reproduce`,
/// then runs the registered benchmarks with the remaining argv.  A negative
/// --threads prints a usage line and returns 2 before any study runs.
int bench_main(int argc, char** argv, const char* experiment,
               void (*reproduce)());

}  // namespace charisma::bench

#define CHARISMA_BENCH_MAIN(experiment, reproduce_fn)                \
  int main(int argc, char** argv) {                                  \
    return charisma::bench::bench_main(argc, argv, experiment,       \
                                       reproduce_fn);                \
  }
