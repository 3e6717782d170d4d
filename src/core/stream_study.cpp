#include "core/stream_study.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <vector>

#include "util/stopwatch.hpp"

namespace charisma::core {

std::string spill_file_path(const std::string& dir, const char* tag) {
  static std::atomic<std::uint64_t> counter{0};
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  if (base.back() != '/') base += '/';
  std::ostringstream os;
  os << base << "charisma_" << tag << "_" << ::getpid() << "_"
     << counter.fetch_add(1, std::memory_order_relaxed) << ".spill";
  return os.str();
}

StreamedStudyOutput run_streamed_study(const StudyConfig& config,
                                       const StreamOptions& options) {
  StudyRig rig(config);
  trace::Collector& collector = rig.collector();
  // The spill header is written up front, so the annotation run_study
  // applies after the fact must be final before the first block lands.
  collector.annotate(config.workload.seed, kStudyTraceLabel);
  // One shared memory-tier pool for both spills (trace blocks and replay-op
  // chunks): reservations are never returned, so peak RSS is bounded by the
  // streaming window plus this budget no matter how the two spills split it.
  trace::SpillBudget budget(config.spill_budget_mb * (std::int64_t{1} << 20));
  trace::SpillWriterOptions wopts;
  wopts.budget = &budget;
  wopts.async = options.async_spill;
  collector.start_spilling(trace::SpillTarget::anonymous_in(config.spill_dir),
                           wopts);

  StreamedStudyOutput out;
  rig.run(out);

  const trace::SpilledTrace spilled = collector.take_spilled();
  out.header = spilled.header;
  util::Stopwatch digest_sw;
  out.trace_digest = spilled.digest();
  const double digest_ms = digest_sw.elapsed_ms();

  // One merge pass feeds every consumer; per-sink state is bounded
  // (sessions, histograms, a timeline, one op chunk), never the trace.
  analysis::SessionAccumulator sessions;
  analysis::RequestSizeAccumulator request_sizes;
  analysis::IoRateAccumulator io_rate(out.header.trace_start,
                                      out.header.trace_end);
  std::optional<cache::ReplayOpSink> ops;
  std::vector<trace::RecordSink*> sinks{&sessions, &request_sizes, &io_rate};
  if (options.collect_replay_ops) {
    cache::ReplayOpSinkOptions oopts;
    oopts.budget = &budget;
    oopts.dir = config.spill_dir;
    ops.emplace(std::move(oopts));
    sinks.push_back(&*ops);
  }
  sinks.insert(sinks.end(), options.sinks.begin(), options.sinks.end());
  trace::StreamMergeStats merge_stats;
  trace::StreamMergeOptions mopts;
  mopts.prefetch = options.prefetch;
  mopts.stats = &merge_stats;
  out.streamed_records = trace::stream_postprocess(spilled, sinks, mopts);

  out.sessions = sessions.take(out.header);
  out.request_sizes = request_sizes.finish();
  out.io_rate = io_rate.finish();
  if (ops.has_value()) out.replay_ops = ops->finish();

  const trace::SpillWriterStats& wstats = spilled.write_stats();
  out.spill.spill_write_ms = wstats.write_ms + out.replay_ops.write_ms();
  out.spill.spill_read_ms = merge_stats.read_ms;
  out.spill.digest_ms = digest_ms;
  out.spill.sink_ms = merge_stats.sink_ms;
  out.spill.append_stall_ms = wstats.append_stall_ms;
  out.spill.spill_bytes_written =
      wstats.disk_bytes + out.replay_ops.disk_bytes();
  // digest() re-reads every disk payload byte once; the merge's disk reads
  // come on top.  Sweep-pass re-reads accrue later via SweepRunner.
  out.spill.spill_bytes_read =
      spilled.disk_payload_bytes() + merge_stats.disk_bytes_read;
  out.spill.trace_blocks_in_memory = wstats.mem_blocks;
  out.spill.trace_blocks_on_disk = wstats.disk_blocks;
  out.spill.ops_chunks_in_memory = out.replay_ops.mem_chunks().size();
  out.spill.ops_chunks_on_disk = out.replay_ops.disk_chunks();
  out.spill.spill_budget_mb = config.spill_budget_mb;
  return out;  // `spilled` unlinks the raw-trace spill here
}

}  // namespace charisma::core
