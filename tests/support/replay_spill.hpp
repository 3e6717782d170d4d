// Replay-op spills from hand-built or materialized record vectors: the
// spill a streamed study's merge would produce for the same records.  Tests
// that start from a record vector build their SweepRunners and replay logs
// through this one helper, so they exercise the production op source.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/replay.hpp"
#include "trace/record.hpp"
#include "trace/spill.hpp"

namespace charisma::oracle {

/// A memory budget large enough that every chunk, and the decoded op array,
/// stays resident (ReplayOpSpill::decode_resident()).
inline constexpr std::int64_t kResidentBudget = std::int64_t{1} << 40;

/// Pushes `records` through a ReplayOpSink whose memory tier admits
/// `budget_bytes` (0 puts every chunk on disk).
[[nodiscard]] inline cache::ReplayOpSpill replay_spill(
    const std::vector<trace::Record>& records,
    std::int64_t budget_bytes = kResidentBudget) {
  trace::SpillBudget budget(budget_bytes);
  cache::ReplayOpSinkOptions options;
  options.budget = &budget;
  cache::ReplayOpSink sink(options);
  for (const trace::Record& r : records) sink.on_record(r);
  return sink.finish();
}

/// The resident replay log over `records`' data requests, with no
/// read-only sessions.
[[nodiscard]] inline cache::ReplayLog replay_log(
    const std::vector<trace::Record>& records) {
  return cache::ReplayLog(replay_spill(records), {});
}

}  // namespace charisma::oracle
