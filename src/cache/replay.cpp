#include "cache/replay.hpp"

#include <algorithm>

#include "trace/record.hpp"

namespace charisma::cache {

namespace {

// Charged per memory-tier chunk on top of the encoded payload: the chunk
// struct plus the payload vector's bookkeeping/allocator overhead.
constexpr std::int64_t kMemChunkOverhead = 48;

inline std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

namespace detail {

void encode_ops(const ReplayOp* ops, std::size_t n,
                std::vector<std::uint8_t>& out) {
  JobId prev_job = cfs::kNoJob;
  FileId prev_file = cfs::kNoFile;
  NodeId prev_node = 0;
  std::int64_t prev_end = 0;
  std::int64_t prev_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const ReplayOp& op = ops[i];
    const bool same_session = op.job == prev_job && op.file == prev_file;
    const bool same_node = op.node == prev_node;
    const bool sequential = op.offset == prev_end;
    const bool same_bytes = op.bytes == prev_bytes;
    std::uint8_t tag = op.is_read ? kTagIsRead : 0;
    if (same_session) tag |= kTagSameSession;
    if (same_node) tag |= kTagSameNode;
    if (sequential) tag |= kTagSequential;
    if (same_bytes) tag |= kTagSameBytes;
    out.push_back(tag);
    if (!same_session) {
      put_varint(out, zigzag(static_cast<std::int64_t>(op.job) - prev_job));
      put_varint(out, zigzag(static_cast<std::int64_t>(op.file) - prev_file));
    }
    if (!same_node) {
      put_varint(out, zigzag(static_cast<std::int64_t>(op.node) - prev_node));
    }
    if (!sequential) put_varint(out, zigzag(op.offset - prev_end));
    if (!same_bytes) put_varint(out, zigzag(op.bytes - prev_bytes));
    prev_job = op.job;
    prev_file = op.file;
    prev_node = op.node;
    prev_bytes = op.bytes;
    prev_end = op.offset + op.bytes;
  }
}

std::size_t decode_ops(const std::uint8_t* data, std::size_t size,
                       std::size_t n, ReplayOp* out) {
  std::size_t pos = 0;
  const auto varint = [&]() -> std::uint64_t {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= size) {
        throw std::runtime_error("replay op chunk truncated");
      }
      const std::uint8_t b = data[pos++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) return v;
      shift += 7;
      if (shift >= 64) {
        throw std::runtime_error("replay op varint overflow");
      }
    }
  };
  JobId prev_job = cfs::kNoJob;
  FileId prev_file = cfs::kNoFile;
  NodeId prev_node = 0;
  std::int64_t prev_end = 0;
  std::int64_t prev_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (pos >= size) throw std::runtime_error("replay op chunk truncated");
    const std::uint8_t tag = data[pos++];
    ReplayOp op;
    op.is_read = (tag & kTagIsRead) != 0;
    if ((tag & kTagSameSession) != 0) {
      op.job = prev_job;
      op.file = prev_file;
    } else {
      op.job = static_cast<JobId>(prev_job + unzigzag(varint()));
      op.file = static_cast<FileId>(prev_file + unzigzag(varint()));
    }
    op.node = (tag & kTagSameNode) != 0
                  ? prev_node
                  : static_cast<NodeId>(prev_node + unzigzag(varint()));
    op.offset = (tag & kTagSequential) != 0 ? prev_end
                                            : prev_end + unzigzag(varint());
    op.bytes = (tag & kTagSameBytes) != 0 ? prev_bytes
                                          : prev_bytes + unzigzag(varint());
    out[i] = op;
    prev_job = op.job;
    prev_file = op.file;
    prev_node = op.node;
    prev_bytes = op.bytes;
    prev_end = op.offset + op.bytes;
  }
  return pos;
}

OneTouchMarker::File& OneTouchMarker::file(FileId id) {
  // File ids are dense inode numbers in practice, so the id -> state map is
  // a flat vector; an id far outside that range goes through a hash map.
  if (id < 0 || id >= kDenseFiles) return sparse_[id];
  const auto at = static_cast<std::size_t>(id);
  if (at >= dense_.size()) dense_.resize(at + 1);
  return dense_[at];
}

void OneTouchMarker::clear(std::vector<Candidate>& live, std::int64_t first,
                           std::int64_t last) {
  // Every live candidate [first, last] overlaps is touched twice.
  const auto from = std::lower_bound(
      live.begin(), live.end(), first,
      [](const Candidate& c, std::int64_t v) { return c.last < v; });
  auto to = from;
  for (; to != live.end() && to->first <= last; ++to) {
    bits_[to->op >> 6] &= ~(1ull << (to->op & 63));
    --stats_.ops;
    stats_.blocks -= static_cast<std::uint64_t>(to->last - to->first + 1);
  }
  live.erase(from, to);
}

void OneTouchMarker::add(const ReplayOp* ops, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) add(ops[i]);
}

void OneTouchMarker::add(const ReplayOp& op) {
  const std::uint64_t id = next_++;
  if ((id & 63) == 0) bits_.push_back(0);
  const std::int64_t first = op.offset / kBlockSize;
  const std::int64_t last =
      (op.offset + std::max<std::int64_t>(op.bytes, 1) - 1) / kBlockSize;
  const auto blocks = static_cast<std::uint64_t>(last - first + 1);
  stats_.total_blocks += blocks;
  const auto mark = [&] {
    bits_[id >> 6] |= 1ull << (id & 63);
    ++stats_.ops;
    stats_.blocks += blocks;
  };

  File& f = file(op.file);
  std::vector<Range>& seen = f.seen;
  std::vector<Candidate>& live = f.live;
  if (first >= f.hot.first && last <= f.hot.last) {
    // Inside the range the file's last op merged into (re-reads mostly
    // land there): the union stays as it is.
    if (!live.empty()) clear(live, first, last);
    return;
  }
  if (seen.empty() || first > seen.back().last) {
    // Past every block of the file seen so far (the common append): a
    // candidate, extending the last range when it is adjacent.
    if (!seen.empty() && first == seen.back().last + 1) {
      seen.back().last = last;
    } else {
      seen.push_back({first, last});
    }
    f.hot = seen.back();
    live.push_back({first, last, id});
    mark();
    return;
  }

  // The seen ranges that overlap [first, last] or touch it end to end: they
  // merge with it into one.
  const auto lo = std::lower_bound(
      seen.begin(), seen.end(), first - 1,
      [](const Range& r, std::int64_t v) { return r.last < v; });
  auto hi = lo;
  bool overlaps = false;
  Range merged{first, last};
  for (; hi != seen.end() && hi->first <= last + 1; ++hi) {
    overlaps = overlaps || (hi->last >= first && hi->first <= last);
    merged.first = std::min(merged.first, hi->first);
    merged.last = std::max(merged.last, hi->last);
  }

  if (overlaps) {
    clear(live, first, last);
  } else {
    live.insert(std::lower_bound(live.begin(), live.end(), first,
                                 [](const Candidate& c, std::int64_t v) {
                                   return c.first < v;
                                 }),
                Candidate{first, last, id});
    mark();
  }

  f.hot = merged;
  if (lo == hi) {
    seen.insert(lo, merged);
  } else {
    *lo = merged;
    seen.erase(lo + 1, hi);
  }
}

}  // namespace detail

ReplayOpSink::ReplayOpSink(ReplayOpSinkOptions options)
    : options_(std::move(options)) {
  buf_.reserve(ReplayLog::kChunkOps);
}

void ReplayOpSink::on_record(const trace::Record& r) {
  const bool is_read = r.kind == trace::EventKind::kRead;
  if ((!is_read && r.kind != trace::EventKind::kWrite) || r.bytes <= 0) {
    return;
  }
  // read_only_session stays unencoded: sessions are still accumulating
  // while this sink runs, so ReplayLog resolves the flag at read time.
  buf_.push_back(
      {r.file, r.job, r.node, r.offset, r.bytes, is_read, false});
  ++spill_.count_;
  if (buf_.size() >= ReplayLog::kChunkOps) flush_buffer();
}

void ReplayOpSink::flush_buffer() {
  if (buf_.empty()) return;
  std::vector<std::uint8_t> encoded;
  encoded.reserve(buf_.size() * 4);
  detail::encode_ops(buf_.data(), buf_.size(), encoded);
  const auto payload = static_cast<std::int64_t>(encoded.size());
  const auto count = static_cast<std::uint32_t>(buf_.size());
  buf_.clear();
  if (!overflowed_ && options_.budget != nullptr &&
      options_.budget->try_reserve(payload + kMemChunkOverhead)) {
    spill_.mem_chunks_.push_back({count, std::move(encoded)});
    return;
  }
  overflowed_ = true;  // sticky: the resident chunks stay a stream prefix
  if (!file_created_) {
    spill_.file_ = trace::SpillFile::create_anonymous(options_.dir, "ops");
    file_created_ = true;
  }
  // One frame per chunk: [u32 op count][u32 payload length][payload].
  std::vector<std::uint8_t> frame;
  frame.reserve(8 + encoded.size());
  const auto put32 = [&frame](std::uint32_t v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    frame.insert(frame.end(), p, p + sizeof v);
  };
  put32(count);
  put32(static_cast<std::uint32_t>(encoded.size()));
  frame.insert(frame.end(), encoded.begin(), encoded.end());
  spill_.write_ms_ +=
      trace::spill_write(spill_.file_.fd(), frame.data(), frame.size());
  spill_.disk_bytes_ += static_cast<std::int64_t>(frame.size());
  ++spill_.disk_chunks_;
}

ReplayOpSpill ReplayOpSink::finish() {
  CHECK(!finished_, "ReplayOpSink::finish called twice");
  finished_ = true;
  flush_buffer();
  // Offer the decoded expansion to the same admission pool while it is
  // still alive: sweeps re-decode the chunks once per pass, so when the
  // budget can also hold the flat ReplayOp array, ReplayLog decodes once
  // at construction instead.  Charged here, like every other reservation,
  // so the study's RSS bound (streaming residue + budget) still holds by
  // construction.  A null budget means all-disk — never resident.
  if (spill_.disk_chunks_ == 0 && options_.budget != nullptr &&
      options_.budget->try_reserve(static_cast<std::int64_t>(
          spill_.count_ * sizeof(detail::ReplayOp)))) {
    spill_.decode_resident_ = true;
  }
  return std::move(spill_);
}

}  // namespace charisma::cache
