// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call from the benchmark into a library layer: name, start,
// end (nanoseconds since the recorder was created), the span that was open
// on the recording thread when it started (its parent), and the recording
// thread's lane.  Spans stay in memory and are written once, at exit, so
// recording costs two clock reads and a vector push per call.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace charisma::perf {

// The benchmark measures the host, so it reads the clock; simulation code
// never does.
using Clock = std::chrono::steady_clock;  // NOLINT(charisma-wallclock)

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline std::int64_t ns_between(Clock::time_point a,
                                             Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Spans::all(), -1 for a root
  int lane = 0;     ///< 0 = main thread, 1.. = pool task slots
};

class Spans {
 public:
  Spans() : origin_(Clock::now()) {}
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Opens a span; returns its index for close().
  int open(std::string name, int parent, int lane) {
    const std::int64_t now = ns_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, lane});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    const std::int64_t now = ns_between(origin_, Clock::now());
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].end_ns = now;
  }

  /// Snapshot; call once every recording thread has finished.
  [[nodiscard]] std::vector<Span> all() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Span duration minus the union of its direct children's intervals.
[[nodiscard]] inline std::int64_t self_ns(const std::vector<Span>& spans,
                                          std::size_t index) {
  const Span& span = spans[index];
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& s : spans) {
    if (s.parent == static_cast<int>(index)) {
      children.emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [start, end] : children) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end_ns - span.start_ns) - covered;
}

/// JSON array of every span plus its self time.
[[nodiscard]] inline std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + s.name + "\", \"start_ns\": " +
           std::to_string(s.start_ns) + ", \"end_ns\": " +
           std::to_string(s.end_ns) + ", \"parent\": " +
           std::to_string(s.parent) + ", \"lane\": " + std::to_string(s.lane) +
           ", \"self_ns\": " + std::to_string(self_ns(spans, i)) + "}";
  }
  out += "\n]\n";
  return out;
}

/// RAII span on the main thread; nests under the enclosing Scope.
class Scope {
 public:
  Scope(Spans* spans, const char* name) : spans_(spans) {
    if (spans_ == nullptr) return;
    index_ = spans_->open(name, current_, 0);
    saved_ = current_;
    current_ = index_;
  }
  ~Scope() {
    if (spans_ == nullptr) return;
    spans_->close(index_);
    current_ = saved_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The innermost open main-thread span (parent for pool-task spans).
  [[nodiscard]] static int current() noexcept { return current_; }

 private:
  Spans* spans_;
  int index_ = -1;
  int saved_ = -1;
  static inline thread_local int current_ = -1;
};

}  // namespace charisma::perf
