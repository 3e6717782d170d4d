// The materialized study: the test oracle the streamed study is held
// bit-identical to.  It runs the same StudyRig, keeps the whole raw trace in
// memory and postprocesses it into one sorted record vector, which each
// record-vector analyzer then reads in its own pass.  Production code
// streams instead (core/stream_study.hpp).
#pragma once

#include <cstdint>

#include "core/study.hpp"
#include "trace/postprocess.hpp"
#include "trace/trace_file.hpp"

namespace charisma::oracle {

/// The whole trace in memory, raw and postprocessed.
struct StudyOutput : core::StudyRun {
  trace::TraceFile raw;
  trace::SortedTrace sorted;
};

/// Runs the full study materialized.  Deterministic in `config`.
[[nodiscard]] inline StudyOutput run_study(const core::StudyConfig& config) {
  core::StudyRig rig(config);
  rig.collector().annotate(config.workload.seed, core::kStudyTraceLabel);
  StudyOutput out;
  rig.run(out);
  out.raw = rig.collector().take_trace();
  out.sorted = trace::postprocess(out.raw);
  return out;
}

/// A study at the given workload scale and seed, NAS defaults otherwise.
[[nodiscard]] inline StudyOutput run_study_at_scale(double scale,
                                                    std::uint64_t seed = 42) {
  core::StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_study(config);
}

}  // namespace charisma::oracle
