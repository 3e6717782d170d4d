// File sessions: the unit of the paper's per-file analyses.
//
// A session is all activity of one job on one file, from the first open to
// the last close ("files" in §4.2-§4.7 — e.g. "44,500 were only written to"
// counts sessions like these).  The builder runs one streaming pass over a
// postprocessed trace and keeps per-(session, node) access statistics plus,
// for files held open by more than one node, merged byte-coverage ranges
// for the sharing analysis.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "trace/postprocess.hpp"
#include "trace/spill.hpp"

namespace charisma::analysis {

using cfs::FileId;
using cfs::IoMode;
using cfs::JobId;
using cfs::NodeId;
using trace::EventKind;
using trace::Record;
using util::MicroSec;

/// Half-open byte range.
struct ByteRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;
};

/// Per-(session, node) streaming access statistics.
struct NodeAccessStats {
  std::uint64_t requests = 0;      // reads + writes
  std::uint64_t sequential = 0;    // requests at a higher offset than prior
  std::uint64_t consecutive = 0;   // requests starting at prior end
  std::int64_t last_offset = -1;
  std::int64_t last_end = -1;
  std::vector<ByteRange> coverage;  // merged; only kept for shared files

  [[nodiscard]] double sequential_fraction() const noexcept;
  [[nodiscard]] double consecutive_fraction() const noexcept;
};

/// How a session touched its file.
enum class AccessClass : std::uint8_t {
  kUntouched,  // opened, neither read nor written
  kReadOnly,
  kWriteOnly,
  kReadWrite,
};

[[nodiscard]] const char* to_string(AccessClass c) noexcept;

struct FileSession {
  JobId job = cfs::kNoJob;
  FileId file = cfs::kNoFile;
  IoMode mode = IoMode::kIndependent;
  bool created_here = false;    // this job's open created the file
  bool deleted_here = false;    // this job deleted it => temporary if created
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::int64_t bytes_read = 0;
  std::int64_t bytes_written = 0;
  std::int64_t size_at_close = 0;  // from the last CLOSE record
  MicroSec first_open = 0;
  MicroSec last_close = 0;
  int max_concurrent_opens = 0;    // nodes holding it open simultaneously
  int total_opens = 0;
  std::set<std::int64_t> interval_sizes;  // across nodes (Table 2)
  std::set<std::int64_t> request_sizes;   // across nodes (Table 3)
  std::map<NodeId, NodeAccessStats> per_node;

  [[nodiscard]] AccessClass access_class() const noexcept;
  [[nodiscard]] bool temporary() const noexcept {
    return created_here && deleted_here;
  }
};

struct JobEvent {
  JobId job = cfs::kNoJob;
  MicroSec time = 0;
  std::int32_t nodes = 0;
  bool start = false;
};

namespace detail {
class SessionBuilder;
}

/// Everything the analyzers need, built in one pass.
class SessionStore {
 public:
  /// Empty store: no sessions, zero trace bounds.  The streaming pipeline
  /// default-constructs one and move-assigns SessionAccumulator::take().
  SessionStore() = default;
  /// `track_coverage` enables the byte-coverage ranges (needed only by the
  /// sharing analysis; costs memory on huge traces).
  explicit SessionStore(const trace::SortedTrace& trace,
                        bool track_coverage = true);

  [[nodiscard]] const std::vector<FileSession>& sessions() const noexcept {
    return sessions_;
  }
  [[nodiscard]] const std::vector<JobEvent>& job_events() const noexcept {
    return job_events_;
  }
  [[nodiscard]] MicroSec trace_start() const noexcept { return start_; }
  [[nodiscard]] MicroSec trace_end() const noexcept { return end_; }

  /// (job, file) pairs whose sessions were read-only — the population the
  /// compute-node cache simulation admits (paper §4.8).
  [[nodiscard]] std::set<std::pair<JobId, FileId>> read_only_sessions() const;

 private:
  friend class detail::SessionBuilder;
  friend class SessionAccumulator;

  std::vector<FileSession> sessions_;
  std::vector<JobEvent> job_events_;
  MicroSec start_ = 0;
  MicroSec end_ = 0;
};

/// Push-based session detector for the streaming trace pipeline: records
/// arrive via on_record (in postprocessed order), take() hands out the
/// finished store.  Produces exactly the sessions — and the session order —
/// of the serial SessionStore constructor.
class SessionAccumulator final : public trace::RecordSink {
 public:
  explicit SessionAccumulator(bool track_coverage = true);
  ~SessionAccumulator() override;
  SessionAccumulator(const SessionAccumulator&) = delete;
  SessionAccumulator& operator=(const SessionAccumulator&) = delete;

  void on_record(const Record& r) override;
  /// Finalizes and hands out the store; the trace bounds come from `header`.
  [[nodiscard]] SessionStore take(const trace::TraceHeader& header);

 private:
  std::unique_ptr<detail::SessionBuilder> builder_;
};

/// Merges `r` into sorted, disjoint `ranges` (coalescing neighbours).
void merge_range(std::vector<ByteRange>& ranges, ByteRange r);
/// Total bytes covered by >= `k` of the given per-node coverage sets.
[[nodiscard]] std::int64_t bytes_covered_by_at_least(
    const std::vector<const std::vector<ByteRange>*>& coverages, int k);

}  // namespace charisma::analysis
