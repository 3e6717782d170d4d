// CharismaStudy — the top-level pipeline and the library's main entry point.
//
// Wires the full reproduction together exactly as the paper's methodology
// runs: synthetic production workload -> simulated iPSC/860 -> instrumented
// CFS -> per-node trace buffers -> service-node collector -> raw trace ->
// postprocess (clock fitting + sort).  Analyzers and cache simulators then
// consume the postprocessed trace.
#pragma once

#include <cstdint>
#include <vector>

#include "cfs/runtime.hpp"
#include "ipsc/machine.hpp"
#include "sim/engine.hpp"
#include "trace/collector.hpp"
#include "trace/postprocess.hpp"
#include "util/rng.hpp"
#include "workload/driver.hpp"
#include "workload/generator.hpp"
#include "workload/source.hpp"

namespace charisma::core {

/// The label every study stamps into its trace header.  Shared between
/// run_study and the streaming runner: the spill header is written up
/// front, so the label must be identical (and final) in both for the trace
/// digests to match.  Also shared across workload sources — the digest
/// folds the label, and keeping it source-independent is what lets a
/// replayed chwl export reproduce its original study's digest bit for bit
/// (the round-trip test pins this).
inline constexpr const char* kStudyTraceLabel =
    "charisma synthetic NAS workload";

/// Default StudyConfig::spill_budget_mb: sized so studies up to scale 1.0
/// (≈310 MB of trace payload plus ≈25 MB of compact replay-op chunks) stay
/// fully resident — disk is for runs beyond the paper's full scale, or for
/// explicitly smaller budgets (campaigns dividing RAM across workers).
inline constexpr std::int64_t kDefaultSpillBudgetMb = 384;

struct StudyConfig {
  workload::WorkloadConfig workload = workload::WorkloadConfig::nas_1993();
  ipsc::MachineConfig machine = ipsc::MachineConfig::nas_ames();
  cfs::RuntimeParams runtime;
  trace::CollectorParams collector;
  /// Which workload source feeds the Driver: the synthetic reconstruction
  /// (default), a chwl replay log ("replay:<path>"), or the Daly
  /// checkpoint-restart archetype ("checkpoint").  Every analyzer, figure,
  /// and cache sweep runs unchanged over any source.
  workload::SourceSpec source;
  /// run_streamed_study's memory-tier budget (one pool shared by trace
  /// blocks, replay-op chunks, and — when it still fits — the sweeps'
  /// decoded flat op array, which lets small studies replay with zero
  /// per-pass decode): spilled data stays resident up to this many MiB,
  /// only the overflow hits disk.  The default keeps every scale ≤ 1.0
  /// study's spilled payload in memory; 0 forces the all-disk pre-tier
  /// behavior.  Peak RSS is bounded by the streaming window plus this
  /// budget.
  std::int64_t spill_budget_mb = kDefaultSpillBudgetMb;
  /// run_streamed_study's spill directory ("" = $TMPDIR, then /tmp).
  std::string spill_dir;
};

/// What every study reports besides its trace: the jobs, the workload, and
/// the perturbation accounting (§3.1 / ablation C).  Both study runners fill
/// it through the one StudyRig.
struct StudyRun {
  std::vector<workload::JobResult> jobs;
  workload::GeneratedWorkload workload;

  std::uint64_t records = 0;
  std::uint64_t collector_messages = 0;
  std::int64_t trace_bytes = 0;
  std::int64_t user_bytes_moved = 0;  // all disk traffic, for the <1% claim
  std::uint64_t total_ops = 0;
  std::uint64_t events_dispatched = 0;  // engine events, for events/sec
  util::MicroSec sim_end = 0;
};

/// The simulation both study runners drive: engine, machine, CFS runtime and
/// trace collector, built in one fixed order with the machine's clock skews
/// drawn from a seed independent of the workload draw.  A runner may set the
/// collector up (annotate it, start spilling) before run() and takes the
/// trace from it afterwards.
class StudyRig {
 public:
  explicit StudyRig(const StudyConfig& config);

  [[nodiscard]] trace::Collector& collector() noexcept { return collector_; }

  /// Loads the configured workload source, drives it to completion, and
  /// fills `out` from the driver, the engine, the collector and the disks.
  void run(StudyRun& out);

 private:
  const StudyConfig& config_;
  sim::Engine engine_;
  util::Rng machine_rng_;
  ipsc::Machine machine_;
  cfs::Runtime runtime_;
  trace::Collector collector_;
};

/// The materialized study: the whole trace in memory, raw and postprocessed.
/// The figure benches, the examples and the tests read its record vector;
/// every production tool streams instead (core/stream_study.hpp).
struct StudyOutput : StudyRun {
  trace::TraceFile raw;
  trace::SortedTrace sorted;
};

/// Runs the full study.  Deterministic in `config`.
[[nodiscard]] StudyOutput run_study(const StudyConfig& config);

/// Convenience used by benches: a study at the given workload scale with
/// everything else at the NAS defaults.
[[nodiscard]] StudyOutput run_study_at_scale(double scale,
                                             std::uint64_t seed = 42);

}  // namespace charisma::core
