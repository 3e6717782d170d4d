// Example: the full CHARISMA methodology end to end.
//
// Generates the synthetic NAS workload, runs it through the simulated
// iPSC/860 + instrumented CFS, collects and postprocesses the trace, and
// prints the complete paper-style characterization.
//
//   trace_and_characterize [--scale=0.2] [--seed=42] [--out=trace.chtr]
//                          [--export=DIR]
//
// --out writes the raw binary trace to disk (readable back with
// trace::TraceFile::read or the charisma_analyze tool); --export writes
// gnuplot-ready series for every figure into DIR.
#include <cstdio>
#include <filesystem>
#include <string>

#include "cache/simulators.hpp"
#include "core/export.hpp"
#include "core/report.hpp"
#include "core/stream_study.hpp"
#include "core/strided.hpp"
#include "util/flags.hpp"

using namespace charisma;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv, {"scale", "seed", "out", "export"});
  core::StudyConfig config;
  config.workload.scale = flags.get_double("scale", 0.2);
  config.workload.seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));

  std::printf("running CHARISMA study at scale %.3f (seed %llu)...\n",
              config.workload.scale,
              static_cast<unsigned long long>(config.workload.seed));
  // The §5 strided rewrite rides the study's merge; the geometry is the one
  // the collector stamps into the trace header.
  core::StridedRewriter strided(config.machine.io_nodes, util::kBlockSize);
  core::StreamOptions options;
  options.sinks.push_back(&strided);
  core::StreamedStudyOutput study;
  const std::string out_path = flags.get("out", "trace.chtr");
  if (flags.has("out")) {
    // Keep the raw trace in memory, write it, then analyze the written file
    // through the same merge a streamed study runs: one simulation either
    // way.
    core::StudyRig rig(config);
    rig.collector().annotate(config.workload.seed, core::kStudyTraceLabel);
    rig.run(study);
    rig.collector().take_trace().write(out_path);
    const trace::SpilledTrace spilled = trace::SpilledTrace::open(out_path);
    trace::SpillBudget budget(config.spill_budget_mb * (std::int64_t{1} << 20));
    core::stream_spilled_trace(spilled, options, budget, config.spill_dir,
                               study);
  } else {
    study = core::run_streamed_study(config, options);
  }

  std::printf("%s", core::full_report(study, strided.finish()).c_str());
  std::printf(
      "\ninstrumentation: %llu records, %llu collector messages, %s of "
      "trace written (%.2f%% of all disk traffic)\n",
      static_cast<unsigned long long>(study.records),
      static_cast<unsigned long long>(study.collector_messages),
      util::format_bytes(study.trace_bytes).c_str(),
      study.user_bytes_moved > 0
          ? 100.0 * static_cast<double>(study.trace_bytes) /
                static_cast<double>(study.user_bytes_moved)
          : 0.0);

  if (flags.has("out")) {
    std::printf("raw trace written to %s\n", out_path.c_str());
  }
  if (flags.has("export")) {
    const std::string dir = flags.get("export", "figures");
    std::filesystem::create_directories(dir);
    const cache::SweepRunner sweeps(std::move(study.replay_ops),
                                    study.sessions.read_only_sessions());
    const auto result = core::export_figures(study, sweeps, dir);
    std::printf("%d figure series written to %s (plot with gnuplot %s)\n",
                result.files_written, dir.c_str(),
                result.plot_script.c_str());
  }
  return 0;
}
