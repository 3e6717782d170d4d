// Event representation and the engine's pending-event queue, split out of
// engine.cpp so the queue can be tested and reasoned about on its own.
//
// Determinism rules (enforced by the engine's differential suite):
//   * time is integer microseconds (util::MicroSec);
//   * ties are broken by schedule order (a monotone sequence number), so a
//     (seed, config) pair always produces the identical event interleaving.
//
// The queue is a two-level calendar queue: near-future events hash into
// fixed-width time buckets (each bucket a small sorted run), far-future
// events wait in a sorted overflow band and migrate into the bucket window
// when it advances.  O(1) amortized per event instead of a binary heap's
// O(log n) on large pending sets, yet it yields events in exactly the same
// (at, seq) order; tests/sim/ keeps a binary-heap engine as its oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/inline_callback.hpp"
#include "util/units.hpp"

namespace charisma::sim {

using util::MicroSec;

/// One scheduled callback.  `seq` is assigned by the engine in schedule
/// order and is unique within a run.
struct Event {
  MicroSec at = 0;
  std::uint64_t seq = 0;
  InlineCallback fn;
};

/// Min-heap comparator: a comes after b in (at, seq) dispatch order.
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const noexcept {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
};

/// The two-level calendar queue.  Level 1: kBucketCount buckets of
/// kBucketWidth microseconds each, covering [window_start_, window_start_ +
/// kSpan); each bucket keeps its pending events sorted by (at, seq) from
/// `head` onward.  Level 2: a binary-heap overflow band for events at or
/// beyond the window, migrated bucket-ward when the window empties.
class CalendarQueue {
 public:
  static constexpr int kBucketShift = 7;  // 128 us per bucket
  static constexpr MicroSec kBucketWidth = MicroSec{1} << kBucketShift;
  // Span = 2.1 s of simulated time.  The window must comfortably cover
  // the workload's compute think times (hundreds of ms to ~1 s): every
  // event scheduled past the window takes a round trip through the
  // overflow binary heap, which costs more than the whole bucketed path.
  // 16384 bucket headers are 512 KiB — noise next to a study's trace.
  static constexpr std::size_t kBucketCount = 16384;
  static constexpr MicroSec kSpan =
      kBucketWidth * static_cast<MicroSec>(kBucketCount);

  CalendarQueue() : buckets_(kBucketCount), occupied_(kBucketCount / 64, 0) {}

  void push(Event&& ev);
  /// Earliest pending time; false when empty.  May advance the bucket
  /// cursor but never reorders or migrates events.
  [[nodiscard]] bool next_time(MicroSec* at);
  /// The (at, seq)-least event, left in place; queue must be non-empty.
  /// The pointer is invalidated by any push — callers move the callback
  /// out and call drop_front() before dispatching it.
  [[nodiscard]] Event* front();
  /// Removes the event front() returned; queue must be non-empty.
  void drop_front();
  [[nodiscard]] std::size_t size() const noexcept {
    return in_window_ + overflow_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  struct Bucket {
    std::vector<Event> events;  // sorted by (at, seq) from `head` on
    std::size_t head = 0;
  };

  void insert_in_window(Event&& ev);
  /// Rebases the window onto the earliest overflow event and moves every
  /// overflow event inside the new window into its bucket.
  void migrate_overflow();

  /// Index of the first live bucket at or after `from`; in_window_ must
  /// be non-zero.  One countr_zero step per 64 buckets, so sparse windows
  /// (an event, then hundreds of empty buckets of think time) cost a few
  /// word loads instead of a per-bucket walk.
  [[nodiscard]] std::size_t next_live_bucket(std::size_t from) const;

  std::vector<Bucket> buckets_;
  /// Bit b set iff buckets_[b] has pending events (head < events.size()).
  std::vector<std::uint64_t> occupied_;
  std::vector<Event> overflow_;  // min-heap under EventAfter
  MicroSec window_start_ = 0;    // multiple of kBucketWidth
  std::size_t cursor_ = 0;       // no non-empty bucket before this index
  std::size_t in_window_ = 0;
};

}  // namespace charisma::sim
