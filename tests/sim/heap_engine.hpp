// Test-only reference engine: the simulator's original binary-heap event
// queue behind sim::Engine's scheduling API.
//
// A heap pops in (at, seq) order by construction, which makes it the
// oracle for the calendar queue: engine_differential_test replays one
// schedule on both engines and compares their dispatch logs element for
// element.  Production code always runs sim::Engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/check.hpp"

namespace charisma::sim::testing {

class HeapEngine {
 public:
  using Callback = InlineCallback;

  HeapEngine() = default;
  HeapEngine(const HeapEngine&) = delete;
  HeapEngine& operator=(const HeapEngine&) = delete;

  [[nodiscard]] MicroSec now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size();
  }
  [[nodiscard]] std::uint64_t dispatched_events() const noexcept {
    return dispatched_;
  }

  void schedule_at(MicroSec at, Callback fn) {
    CHECK(at >= now_, "schedule_at(", at, ") is in the past: now()=", now_);
    heap_.push_back(Event{at, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), EventAfter{});
  }
  void schedule_in(MicroSec delay, Callback fn) {
    CHECK(delay >= 0, "schedule_in(", delay, ") with a negative delay");
    schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), EventAfter{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.at;
    ++dispatched_;
    ev.fn();
    return true;
  }
  void run() {
    while (step()) {
    }
  }
  void run_until(MicroSec deadline) {
    while (!heap_.empty() && heap_.front().at <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  std::vector<Event> heap_;  // min-heap under EventAfter
  MicroSec now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
};

}  // namespace charisma::sim::testing
