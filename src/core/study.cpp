#include "core/study.hpp"

#include <memory>
#include <optional>

#include "util/check.hpp"

namespace charisma::core {

TraceMode parse_trace_mode(const std::string& name) {
  if (name == "streaming") return TraceMode::kStreaming;
  if (name == "materialized") return TraceMode::kMaterialized;
  CHECK(false, "trace mode must be 'streaming' or 'materialized', got '",
        name, "'");
  return TraceMode::kStreaming;
}

StudyOutput run_study(const StudyConfig& config) {
  sim::Engine engine;
  // The machine's clock skews must not depend on the workload draw.
  util::Rng machine_rng(config.workload.seed ^ 0xC10CC10CULL);
  ipsc::Machine machine(engine, config.machine, machine_rng);
  cfs::Runtime runtime(machine, config.runtime);
  trace::Collector collector(machine, config.collector);

  StudyOutput out;
  // The source is loaded exactly where the legacy pipeline called
  // generate(): nothing upstream of this point consumes randomness from the
  // workload draw, so the seam cannot shift the simulation.
  std::unique_ptr<workload::Source> source;
  std::optional<workload::Driver> driver;
  if (config.legacy_driver) {
    CHECK(config.source.method == "synthetic",
          "legacy_driver is the synthetic reference path; got source '",
          workload::to_string(config.source), "'");
    out.workload = workload::generate(config.workload);
    driver.emplace(machine, runtime, collector, out.workload);
  } else {
    source = workload::load_source(config.source, config.workload);
    out.workload = source->workload();
    driver.emplace(machine, runtime, collector, *source);
  }
  driver->run();

  out.jobs = driver->results();
  out.records = collector.records_seen();
  out.collector_messages = collector.messages_to_collector();
  out.trace_bytes = collector.trace_bytes_written();
  out.total_ops = driver->total_ops();
  out.events_dispatched = engine.dispatched_events();
  out.sim_end = engine.now();
  for (int d = 0; d < machine.io_nodes(); ++d) {
    out.user_bytes_moved += machine.disk(d).bytes_moved();
  }
  out.raw = collector.take_trace();
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
