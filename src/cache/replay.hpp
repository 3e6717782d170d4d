// The cache sweeps' op source (ROADMAP item 3).
//
// Cache sweeps are the one trace consumer that needs *multiple* passes, so a
// single push-based sink cannot feed them.  Instead, the streaming pipeline
// spills the pre-filtered replay ops (ReplayOpSink, a RecordSink) during the
// one postprocessing merge, and ReplayLog replays them chunk-by-chunk per
// traversal — each traversal opens its own stream, so parallel sweep work
// units stay safe, and resident memory per traversal is one fixed-size
// chunk instead of the op vector.
//
// Ops are stored varint/delta-encoded (3-4 bytes per op instead of the raw
// struct's 40): streams are bursty per (job, file) session and heavily
// sequential within a session, so a tag byte plus zigzag-LEB128 deltas
// captures most ops outright.  Chunks are self-contained (the predictor
// resets per chunk) and land in a memory tier charged against the study's
// shared trace::SpillBudget, overflowing — stickily, like the trace spill —
// to an anonymous temp file.  Sweeps re-read the ops once per work unit (a
// pooled grouped sweep splits each planned pass into node slices, and every
// slice traverses the whole log), so compactness pays on every unit.
//
// The read-only-session flag cannot be known while spilling (sessions finish
// only after the last record), so ops are encoded without it and the flag is
// resolved during traversal with the same per-(job, file) memoized set
// lookup prepare_replay uses — the streams are identical op for op.
//
// ReplayLog also wraps a plain in-memory op vector (what the per-config
// simulators build from a record vector), so every simulator below it has
// exactly one op-source type.
//
// One-touch ops.  An op is one-touch when no other op in the log touches
// any of its (file, 4 KB block) keys.  Every cache misses on each of its
// blocks and never looks one up again, so the sweep kernels replay it as a
// counted run of anonymous blocks (BlockCache::insert_run,
// SegmentedLruStack::insert_run) instead of per-block hash work.  A log
// built for the sweeps marks its one-touch ops once, in the decode pass it
// already makes, with one forward scan that keeps per file the merged
// union of the block ranges seen so far and the candidates still live: an
// op that misses the union becomes a candidate, and a later op that
// overlaps a candidate clears it.  The per-config simulators build
// unmarked logs, so they step every block and stay independent oracles.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/block_cache.hpp"
#include "trace/spill.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"
#include "util/units.hpp"

namespace charisma::cache {

using cfs::FileId;
using cfs::JobId;
using cfs::NodeId;
using SessionKey = std::pair<JobId, FileId>;

namespace detail {

/// One replayable data request, pre-filtered from the trace: only reads and
/// writes with positive byte counts survive, and the read-only-session
/// lookup is resolved once instead of per (config, record).
struct ReplayOp {
  FileId file = cfs::kNoFile;
  JobId job = cfs::kNoJob;
  NodeId node = 0;
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
  bool is_read = false;
  bool read_only_session = false;
  /// No other op of the log touches any of this op's blocks (set only in
  /// logs that were marked; see ReplayLog).
  bool one_touch = false;
};

// Tag-byte bits of the compact op encoding.  Unset "same"/"sequential" bits
// mean the corresponding zigzag-LEB128 delta varint follows, in tag-bit
// order: job+file (session), node, offset (vs. the previous op's end), bytes.
inline constexpr std::uint8_t kTagIsRead = 1u << 0;
inline constexpr std::uint8_t kTagSameSession = 1u << 1;
inline constexpr std::uint8_t kTagSequential = 1u << 2;
inline constexpr std::uint8_t kTagSameBytes = 1u << 3;
inline constexpr std::uint8_t kTagSameNode = 1u << 4;

/// Appends the compact encoding of ops[0..n) to `out`.  Self-contained: the
/// delta predictor starts from a fixed state, so a chunk decodes without any
/// earlier chunk.  read_only_session is not encoded.
void encode_ops(const ReplayOp* ops, std::size_t n,
                std::vector<std::uint8_t>& out);

/// Decodes exactly `n` ops from data[0..size) into out[0..n); returns the
/// bytes consumed.  Decoded ops carry read_only_session == false.  Throws
/// std::runtime_error on truncated or malformed input.
std::size_t decode_ops(const std::uint8_t* data, std::size_t size,
                       std::size_t n, ReplayOp* out);

}  // namespace detail

/// What a log's one-touch marking found (all zero for an unmarked log).
struct OneTouchStats {
  std::uint64_t ops = 0;           ///< ops marked one-touch
  std::uint64_t blocks = 0;        ///< blocks those ops touch
  std::uint64_t total_blocks = 0;  ///< blocks every op touches, summed
  double mark_ms = 0.0;            ///< host ms the marking scan took

  /// Share of all block accesses that belong to one-touch ops.
  [[nodiscard]] double block_frac() const noexcept {
    return total_blocks != 0 ? static_cast<double>(blocks) /
                                   static_cast<double>(total_blocks)
                             : 0.0;
  }
};

namespace detail {

/// The one-touch marking scan (see the header comment).  Fed every op of a
/// log once, in stream order, numbering them from 0.  Memory is one flat
/// pair of vectors per file: the disjoint ranges seen and the live
/// candidates.
class OneTouchMarker {
 public:
  /// Marks ops at this block size; the kernels use the marks only when a
  /// config replays at the same size.
  static constexpr std::int64_t kBlockSize = util::kBlockSize;

  void add(const ReplayOp* ops, std::size_t n);
  /// The tallies so far (mark_ms is left to the caller).
  [[nodiscard]] const OneTouchStats& stats() const noexcept { return stats_; }
  /// Bit i of word i / 64 is set when op i is one-touch.
  [[nodiscard]] std::vector<std::uint64_t> take_bits() {
    return std::move(bits_);
  }

 private:
  struct Range {
    std::int64_t first = 0;
    std::int64_t last = 0;
  };
  struct Candidate {
    std::int64_t first = 0;
    std::int64_t last = 0;
    std::uint64_t op = 0;
  };
  struct File {
    std::vector<Range> seen;      // merged, sorted, non-adjacent
    std::vector<Candidate> live;  // sorted, disjoint
    /// A block range the union covers: the range the last op of the file
    /// merged into.  Ranges only grow, so it stays covered when stale.
    Range hot{1, 0};
  };

  /// File ids in [0, kDenseFiles) index a flat vector; others a hash map.
  static constexpr FileId kDenseFiles = 1 << 20;

  File& file(FileId id);
  void add(const ReplayOp& op);
  /// Clears the live candidates that overlap [first, last].
  void clear(std::vector<Candidate>& live, std::int64_t first,
             std::int64_t last);

  std::vector<File> dense_;  // by file id
  // Never iterated, so hash order cannot leak into the marks.
  std::unordered_map<FileId, File> sparse_;
  std::vector<std::uint64_t> bits_;
  std::uint64_t next_ = 0;
  OneTouchStats stats_;
};

}  // namespace detail

/// One encoded chunk resident in the memory tier.
struct ReplayOpChunk {
  std::uint32_t count = 0;           ///< ops in this chunk (≤ kChunkOps)
  std::vector<std::uint8_t> bytes;   ///< detail::encode_ops payload
};

/// A finished op spill: encoded chunks in the memory tier (a prefix of the
/// stream) and/or `[u32 count][u32 payload_len][payload]` frames in an
/// anonymous temp file (deleted with this object).  Op flags are unresolved.
class ReplayOpSpill {
 public:
  ReplayOpSpill() = default;
  ReplayOpSpill(ReplayOpSpill&&) noexcept = default;
  ReplayOpSpill& operator=(ReplayOpSpill&&) noexcept = default;
  ReplayOpSpill(const ReplayOpSpill&) = delete;
  ReplayOpSpill& operator=(const ReplayOpSpill&) = delete;
  ~ReplayOpSpill() = default;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] const std::vector<ReplayOpChunk>& mem_chunks() const noexcept {
    return mem_chunks_;
  }
  [[nodiscard]] std::uint64_t disk_chunks() const noexcept {
    return disk_chunks_;
  }
  /// Read path of the overflow file; empty when everything fit in memory.
  [[nodiscard]] const std::string& path() const noexcept {
    return file_.read_path();
  }
  /// Host ms the sink spent blocked in write(2) for overflow frames.
  [[nodiscard]] double write_ms() const noexcept { return write_ms_; }
  [[nodiscard]] std::int64_t disk_bytes() const noexcept {
    return disk_bytes_;
  }
  /// True when the sink's budget also admitted the *decoded* flat op array
  /// (count() × sizeof ReplayOp), reserved at finish() while the pool was
  /// alive.  ReplayLog then decodes once at construction and traversals
  /// skip per-pass chunk decoding; the expansion stays inside the study's
  /// RSS bound because it was charged to the same pool.
  [[nodiscard]] bool decode_resident() const noexcept {
    return decode_resident_;
  }

 private:
  friend class ReplayOpSink;
  std::vector<ReplayOpChunk> mem_chunks_;
  trace::SpillFile file_;
  std::uint64_t count_ = 0;
  std::uint64_t disk_chunks_ = 0;
  double write_ms_ = 0.0;
  std::int64_t disk_bytes_ = 0;
  bool decode_resident_ = false;
};

struct ReplayOpSinkOptions {
  /// Admission pool for the memory tier, shared with the trace spill writer;
  /// borrowed, must outlive the sink.  Null sends every chunk to disk.
  trace::SpillBudget* budget = nullptr;
  /// Directory for the anonymous overflow file ("" = $TMPDIR, then /tmp).
  std::string dir;
};

/// RecordSink that filters the postprocessed stream down to replayable data
/// requests and spills them as compact encoded chunks.  finish() hands out
/// the spill.
class ReplayOpSink final : public trace::RecordSink {
 public:
  explicit ReplayOpSink(ReplayOpSinkOptions options = {});
  void on_record(const trace::Record& r) override;
  [[nodiscard]] ReplayOpSpill finish();

 private:
  void flush_buffer();

  ReplayOpSinkOptions options_;
  ReplayOpSpill spill_;
  std::vector<detail::ReplayOp> buf_;
  bool overflowed_ = false;  // sticky, like the trace spill's memory tier
  bool file_created_ = false;
  bool finished_ = false;
};

/// The sweeps' one op-source type: either an owned in-memory op vector
/// (flags already resolved — the per-config simulators' path) or an
/// owned op spill decoded chunk-by-chunk.  Spill-mode read-only flags are
/// resolved once, at construction, into a per-op bit array (the same
/// bake-once semantics prepare_replay gives the in-memory path), so
/// traversals pay no session lookups.  Traversals are const and open
/// private streams, so concurrent passes from pool workers are safe in
/// both modes.
class ReplayLog {
 public:
  /// Ops streamed to traversal callbacks per chunk; bounds file-mode
  /// resident memory per traversal (one decode buffer of this many ops).
  static constexpr std::size_t kChunkOps = 4096;

  ReplayLog() = default;
  /// In-memory log; `ops` must carry resolved read_only_session flags.
  /// Unmarked until mark_one_touch().
  explicit ReplayLog(std::vector<detail::ReplayOp> ops)
      : ops_(std::move(ops)) {}
  /// Spill-backed log, marked.  `read_only` is consumed here: one decode
  /// pass at construction resolves every op's read_only_session flag (so
  /// the set need not outlive the log) and marks the one-touch ops.  When
  /// the spill's budget admitted the decoded array (decode_resident()),
  /// that pass lands the flat resolved ops and traversals run in in-memory
  /// mode; otherwise it fills 1-bit-per-op flag arrays and traversals
  /// re-decode chunks.
  ReplayLog(ReplayOpSpill spill, const std::set<SessionKey>& read_only)
      : spill_(std::move(spill)),
        file_mode_(true),
        bytes_read_(std::make_unique<std::atomic<std::int64_t>>(0)) {
    if (spill_.decode_resident()) {
      ops_.reserve(static_cast<std::size_t>(spill_.count()));
      SessionKey last_key{cfs::kNoJob, cfs::kNoFile};
      bool last_read_only = false;
      detail::OneTouchMarker marker;
      double ms = 0.0;
      for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          detail::ReplayOp op = ops[i];
          const SessionKey key{op.job, op.file};
          if (key != last_key) {
            last_key = key;
            last_read_only = read_only.find(key) != read_only.end();
          }
          op.read_only_session = last_read_only;
          ops_.push_back(op);
        }
        const util::Stopwatch sw;
        marker.add(ops, n);  // while the chunk is still in cache
        ms += sw.elapsed_ms();
      });
      spill_ = ReplayOpSpill();  // drop the encoded tier; ops_ is the log
      file_mode_ = false;
      apply_marks(marker, ms);
      return;
    }
    resolve_flags(read_only);
  }

  /// Marks the one-touch ops of an in-memory log (spill-backed logs are
  /// marked at construction).  Call once, before any traversal.
  void mark_one_touch() {
    CHECK(!file_mode_, "a spill-backed log is marked at construction");
    detail::OneTouchMarker marker;
    double ms = 0.0;
    for (std::size_t base = 0; base < ops_.size(); base += kChunkOps) {
      const util::Stopwatch sw;
      marker.add(ops_.data() + base, std::min(kChunkOps, ops_.size() - base));
      ms += sw.elapsed_ms();
    }
    apply_marks(marker, ms);
  }

  /// Whether a kernel replaying at `block_size` may treat `op` as a
  /// one-touch run: it is marked, and the marks were made at that size.
  [[nodiscard]] static bool one_touch(const detail::ReplayOp& op,
                                      std::int64_t block_size) noexcept {
    return op.one_touch &&
           block_size == detail::OneTouchMarker::kBlockSize;
  }
  /// What the marking found (zeros for an unmarked log).
  [[nodiscard]] const OneTouchStats& one_touch_stats() const noexcept {
    return one_touch_;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return file_mode_ ? static_cast<std::size_t>(spill_.count())
                      : ops_.size();
  }

  /// Disk bytes read back from the overflow file so far — the construction
  /// flag pass plus every traversal (thread-safe; zero for in-memory logs
  /// and all-resident spills).
  [[nodiscard]] std::int64_t spill_bytes_read() const noexcept {
    return bytes_read_ != nullptr
               ? bytes_read_->load(std::memory_order_relaxed)
               : 0;
  }

  /// Calls f(const detail::ReplayOp*, std::size_t) for successive chunks of
  /// at most kChunkOps ops, in stream order.
  template <typename F>
  void for_each_chunk(F&& f) const {
    if (!file_mode_) {
      for (std::size_t base = 0; base < ops_.size(); base += kChunkOps) {
        const std::size_t n = std::min(kChunkOps, ops_.size() - base);
        f(ops_.data() + base, n);
      }
      return;
    }
    std::uint64_t base = 0;
    for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t bit = base + i;
        ops[i].read_only_session =
            (read_only_bits_[bit >> 6] >> (bit & 63)) & 1;
        ops[i].one_touch = (one_touch_bits_[bit >> 6] >> (bit & 63)) & 1;
      }
      f(static_cast<const detail::ReplayOp*>(ops), n);
      base += n;
    });
  }

  /// Calls f(const detail::ReplayOp&) for every op in stream order.
  template <typename F>
  void for_each(F&& f) const {
    for_each_chunk([&](const detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i) f(ops[i]);
    });
  }

 private:
  /// Decodes every chunk (memory tier, then the disk tail) into a private
  /// buffer and yields f(detail::ReplayOp*, n) in stream order, flags
  /// unresolved.  Const and reentrant: each call opens its own stream.
  template <typename F>
  void for_each_decoded_chunk(F&& f) const {
    if (spill_.count() == 0) return;
    std::vector<detail::ReplayOp> buf(
        std::min<std::size_t>(kChunkOps,
                              static_cast<std::size_t>(spill_.count())));
    std::uint64_t remaining = spill_.count();
    const auto emit = [&](std::size_t n) {
      CHECK(n <= remaining, "replay spill overruns its declared op count");
      f(buf.data(), n);
      remaining -= n;
    };
    for (const auto& chunk : spill_.mem_chunks()) {
      CHECK(chunk.count <= buf.size(), "replay op chunk too large");
      const std::size_t used = detail::decode_ops(
          chunk.bytes.data(), chunk.bytes.size(), chunk.count, buf.data());
      CHECK(used == chunk.bytes.size(),
            "replay op chunk has trailing bytes");
      emit(chunk.count);
    }
    if (spill_.disk_chunks() > 0) {
      std::ifstream in(spill_.path(), std::ios::binary);
      if (!in) {
        throw std::runtime_error("cannot open replay spill: " +
                                 spill_.path());
      }
      std::vector<std::uint8_t> payload;
      for (std::uint64_t c = 0; c < spill_.disk_chunks(); ++c) {
        std::uint32_t count = 0;
        std::uint32_t len = 0;
        in.read(reinterpret_cast<char*>(&count), sizeof count);
        in.read(reinterpret_cast<char*>(&len), sizeof len);
        CHECK(in.good(), "replay spill truncated: ", spill_.path());
        CHECK(count <= buf.size(), "replay op chunk too large");
        payload.resize(len);
        in.read(reinterpret_cast<char*>(payload.data()),
                static_cast<std::streamsize>(len));
        CHECK(static_cast<std::uint32_t>(in.gcount()) == len,
              "replay spill truncated: ", spill_.path());
        const std::size_t used =
            detail::decode_ops(payload.data(), len, count, buf.data());
        CHECK(used == len, "replay op chunk has trailing bytes");
        bytes_read_->fetch_add(
            static_cast<std::int64_t>(sizeof count + sizeof len + len),
            std::memory_order_relaxed);
        emit(count);
      }
    }
    CHECK(remaining == 0, "replay spill ended short of its declared count");
  }

  /// Sets the flag of the in-memory ops `marker` marked (ops start
  /// unmarked) and keeps its tallies.
  void apply_marks(detail::OneTouchMarker& marker, double mark_ms) {
    one_touch_ = marker.stats();
    one_touch_.mark_ms = mark_ms;
    const std::vector<std::uint64_t> bits = marker.take_bits();
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
        ops_[w * 64 + static_cast<std::size_t>(std::countr_zero(b))]
            .one_touch = true;
      }
    }
  }

  /// One decode pass at construction: memoized set lookups (ops arrive in
  /// bursts for one (job, file), so one lookup covers the run — the memo
  /// survives chunk boundaries even though the decode predictor resets)
  /// fill a 1-bit-per-op array every traversal then reads for free, and
  /// the same pass feeds the one-touch marker.
  void resolve_flags(const std::set<SessionKey>& read_only) {
    read_only_bits_.assign(
        static_cast<std::size_t>((spill_.count() + 63) / 64), 0);
    SessionKey last_key{cfs::kNoJob, cfs::kNoFile};
    bool last_read_only = false;
    std::uint64_t bit = 0;
    detail::OneTouchMarker marker;
    double ms = 0.0;
    for_each_decoded_chunk([&](detail::ReplayOp* ops, std::size_t n) {
      for (std::size_t i = 0; i < n; ++i, ++bit) {
        const SessionKey key{ops[i].job, ops[i].file};
        if (key != last_key) {
          last_key = key;
          last_read_only = read_only.find(key) != read_only.end();
        }
        if (last_read_only) read_only_bits_[bit >> 6] |= 1ull << (bit & 63);
      }
      const util::Stopwatch sw;
      marker.add(ops, n);
      ms += sw.elapsed_ms();
    });
    one_touch_ = marker.stats();
    one_touch_.mark_ms = ms;
    one_touch_bits_ = marker.take_bits();
    one_touch_bits_.resize(read_only_bits_.size(), 0);
  }

  std::vector<detail::ReplayOp> ops_;  // in-memory mode
  ReplayOpSpill spill_;                // spill mode
  /// 1 bit per op (spill mode): the read_only_session flags, baked once.
  std::vector<std::uint64_t> read_only_bits_;
  /// 1 bit per op (spill mode): the one-touch marks.
  std::vector<std::uint64_t> one_touch_bits_;
  OneTouchStats one_touch_;
  bool file_mode_ = false;
  // unique_ptr keeps the log movable; only traversals of disk chunks touch it.
  std::unique_ptr<std::atomic<std::int64_t>> bytes_read_;
};

}  // namespace charisma::cache
