#include "core/study.hpp"

#include <memory>

namespace charisma::core {

StudyRig::StudyRig(const StudyConfig& config)
    : config_(config),
      // The machine's clock skews must not depend on the workload draw.
      machine_rng_(config.workload.seed ^ 0xC10CC10CULL),
      machine_(engine_, config.machine, machine_rng_),
      runtime_(machine_, config.runtime),
      collector_(machine_, config.collector) {}

void StudyRig::run(StudyRun& out) {
  // Nothing upstream of this point consumes randomness from the workload
  // draw, so the source cannot shift the simulation.
  const std::unique_ptr<workload::Source> source =
      workload::load_source(config_.source, config_.workload);
  out.workload = source->workload();
  workload::Driver driver(machine_, runtime_, collector_, *source);
  driver.run();

  out.jobs = driver.results();
  out.records = collector_.records_seen();
  out.collector_messages = collector_.messages_to_collector();
  out.trace_bytes = collector_.trace_bytes_written();
  out.total_ops = driver.total_ops();
  out.events_dispatched = engine_.dispatched_events();
  out.sim_end = engine_.now();
  for (int d = 0; d < machine_.io_nodes(); ++d) {
    out.user_bytes_moved += machine_.disk(d).bytes_moved();
  }
}

StudyOutput run_study(const StudyConfig& config) {
  StudyRig rig(config);
  StudyOutput out;
  rig.run(out);
  out.raw = rig.collector().take_trace();
  out.raw.header.seed = config.workload.seed;
  out.raw.header.label = kStudyTraceLabel;
  out.sorted = trace::postprocess(out.raw);
  return out;
}

StudyOutput run_study_at_scale(double scale, std::uint64_t seed) {
  StudyConfig config;
  config.workload.scale = scale;
  config.workload.seed = seed;
  return run_study(config);
}

}  // namespace charisma::core
