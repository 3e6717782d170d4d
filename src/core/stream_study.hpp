// The streaming (bounded-memory) study runner — the one study pipeline.
//
// Runs the simulation (StudyRig), but the collector spills raw trace blocks
// as they flush instead of accumulating a TraceFile, and the postprocessing
// merge pushes each record — once, in corrected chronological order —
// through bounded-state sinks: the session detector, the request-size and
// I/O-rate accumulators, the cache sweeps' replay-op spill, and any sinks
// the caller adds.  Nothing ever holds the whole trace: peak RSS is the
// simulation itself plus the k-way merge window, independent of trace
// length.
//
// The sinks ARE the implementation the record-vector analyzers call, the
// merge uses the same ordering key as trace::postprocess, and the spilled
// bytes are the same encoding TraceFile::write emits, so every statistic
// and the digest equal the materialized test oracle's
// (tests/support/materialized_study.hpp; the streaming differential test
// holds both to one digest).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzers.hpp"
#include "analysis/iorate.hpp"
#include "analysis/session.hpp"
#include "cache/replay.hpp"
#include "core/study.hpp"
#include "trace/spill.hpp"

namespace charisma::core {

struct StreamOptions {
  /// Spill the cache sweeps' replay ops during the merge.  Off skips the op
  /// spill entirely (pure-characterization runs that never simulate caches).
  bool collect_replay_ops = true;
  /// Write overflow trace blocks from a background writer thread (bounded
  /// queue), so the simulation never blocks on write(2).  Bit-identical
  /// bytes either way; only the timing attribution moves.
  bool async_spill = true;
  /// Background-prefetch the merge's next disk block per node cursor.
  bool prefetch = true;
  /// Caller-owned sinks the merge also feeds, after the study's own, with
  /// every record in postprocessed order (charisma_analyze's strided
  /// rewrite rides here).  They must outlive the call.
  std::vector<trace::RecordSink*> sinks;
};

/// Host-side spill/merge measurements of one streamed study — the streaming
/// tax, itemized.  All host milliseconds (never simulated time).
struct SpillTelemetry {
  /// Blocked in write(2): trace spill (synchronous mode) plus replay-op
  /// overflow frames.  In async mode the trace writer's (overlapped) thread
  /// time still lands here; append_stall_ms is what the simulation paid.
  double spill_write_ms = 0.0;
  /// Blocked reading spilled data back: the merge's synchronous block loads
  /// and prefetch waits.  The digest pass is timed separately (digest_ms)
  /// so perf_study can report it as its own stage.
  double spill_read_ms = 0.0;
  /// The FNV fold over the full trace payload (both tiers).
  double digest_ms = 0.0;
  /// Pushing merged record batches through the sinks.
  double sink_ms = 0.0;
  /// Host ms append() waited on the async writer's bounded queue.
  double append_stall_ms = 0.0;
  std::int64_t spill_bytes_written = 0;
  std::int64_t spill_bytes_read = 0;
  std::uint64_t trace_blocks_in_memory = 0;
  std::uint64_t trace_blocks_on_disk = 0;
  std::uint64_t ops_chunks_in_memory = 0;
  std::uint64_t ops_chunks_on_disk = 0;
  std::int64_t spill_budget_mb = 0;  ///< the budget the run actually used
};

/// What the streaming study keeps resident: headline counters, the
/// accumulators' finished results, and the on-disk replay-op spill — never
/// the trace.
struct StreamedStudyOutput : StudyRun {
  trace::TraceHeader header;
  /// TraceFile::digest()-compatible digest of the spilled raw trace.
  std::uint64_t trace_digest = 0;
  /// Records pushed through the postprocessing merge (== records).
  std::uint64_t streamed_records = 0;

  analysis::SessionStore sessions;
  analysis::RequestSizeResult request_sizes;
  analysis::IoRateResult io_rate;
  /// Unresolved-flag replay ops for SweepRunner; empty when
  /// StreamOptions::collect_replay_ops was off.  Pair it with
  /// sessions.read_only_sessions().
  cache::ReplayOpSpill replay_ops;

  /// Spill/merge host-time and tier telemetry for this run.
  SpillTelemetry spill;
};

/// Runs the full study, streaming its trace.  Deterministic in `config`; the
/// spill files are private, uniquely named, and deleted before returning
/// (except the replay-op spill, which the output owns).
[[nodiscard]] StreamedStudyOutput run_streamed_study(
    const StudyConfig& config, const StreamOptions& options = {});

/// The post-simulation half of run_streamed_study, over any spilled trace
/// (a study's own spill, or a saved trace opened with SpilledTrace::open):
/// one postprocessing merge through the session, request-size and I/O-rate
/// accumulators, the replay-op spill when options.collect_replay_ops is on,
/// and options.sinks.  Fills `out`'s header, streamed_records, accumulator
/// results, replay_ops and spill telemetry (except the digest's share); the
/// digest and the StudyRun counters stay with the caller.  Replay-op chunks
/// draw on `budget` and overflow into `spill_dir`.
void stream_spilled_trace(const trace::SpilledTrace& spilled,
                          const StreamOptions& options,
                          trace::SpillBudget& budget,
                          const std::string& spill_dir,
                          StreamedStudyOutput& out);

/// Unique spill-file path in `dir` (or the temp directory when empty):
/// pid + process-wide counter, so concurrent campaign workers and
/// concurrent CI processes never collide.
[[nodiscard]] std::string spill_file_path(const std::string& dir,
                                          const char* tag);

}  // namespace charisma::core
