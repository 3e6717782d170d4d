// Differential test for the engine's calendar queue.
//
// sim::Engine must dispatch in exactly the same (at, seq) order as the
// test-only binary-heap engine (heap_engine.hpp) — not just "a valid
// order".  The same RNG-driven schedule is replayed on both engines and the
// dispatch logs are compared element-for-element.  On a real study, the
// pinned digests (here at scale 0.05; elsewhere at 0.2 and 1.0) hold the
// calendar queue to the trace bytes the heap produced.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/study.hpp"
#include "support/materialized_study.hpp"
#include "heap_engine.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace charisma::sim {
namespace {

using testing::HeapEngine;
using DispatchLog = std::vector<std::pair<MicroSec, int>>;

/// Trace digest of the scale-0.05 / seed-42 study: the run CI's perf-smoke
/// job records and cross-checks bench/perf_study against.
constexpr std::uint64_t kScale005Digest = 0x314938b6bcfec01eULL;

// Replays a deterministic pseudo-random schedule on one engine.  The RNG is
// consumed during dispatch, so the draws (and therefore the whole schedule)
// line up between two engines only when their dispatch orders are identical
// — a divergence amplifies instead of hiding.
template <typename EngineT>
class RandomSchedule {
 public:
  RandomSchedule(EngineT& engine, std::uint64_t seed, int budget)
      : engine_(&engine), rng_(seed), budget_(budget) {}

  DispatchLog run() {
    // Seeds: bursts on shared timestamps plus arrivals scattered far enough
    // to straddle the bucketed queue's window (2048 x 128 us ~ 262 ms).
    for (int burst = 0; burst < 8; ++burst) {
      const auto at = static_cast<MicroSec>(rng_.uniform(2000));
      for (int j = 0; j < 5; ++j) spawn(at);
    }
    for (int i = 0; i < 64; ++i) {
      spawn(static_cast<MicroSec>(rng_.uniform(2'000'000)));
    }
    engine_->run();
    return std::move(log_);
  }

 private:
  void spawn(MicroSec at) {
    const int id = next_id_++;
    engine_->schedule_at(at, [this, id] { fire(id); });
  }

  void fire(int id) {
    log_.emplace_back(engine_->now(), id);
    if (next_id_ >= budget_) return;
    const std::uint64_t children = rng_.uniform(3);
    for (std::uint64_t c = 0; c < children; ++c) {
      MicroSec delay;
      const std::uint64_t kind = rng_.uniform(10);
      if (kind < 5) {
        delay = static_cast<MicroSec>(rng_.uniform(256));  // same bucket
      } else if (kind < 8) {
        delay = static_cast<MicroSec>(rng_.uniform(20'000));  // in window
      } else {
        // Beyond the window: lands in the overflow band and must migrate.
        delay = 300'000 + static_cast<MicroSec>(rng_.uniform(3'000'000));
      }
      spawn(engine_->now() + delay);
    }
    if (rng_.chance(0.1)) {
      // Same-timestamp burst scheduled during dispatch (at == now()).
      for (int j = 0; j < 3; ++j) spawn(engine_->now());
    }
  }

  EngineT* engine_;
  util::Rng rng_;
  DispatchLog log_;
  int next_id_ = 0;
  int budget_;
};

TEST(EngineDifferential, RandomSchedulesDispatchIdentically) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 987'654'321ULL}) {
    Engine calendar;
    HeapEngine reference;
    const DispatchLog a = RandomSchedule(calendar, seed, 4000).run();
    const DispatchLog b = RandomSchedule(reference, seed, 4000).run();
    ASSERT_GT(a.size(), 100u) << "schedule too small to mean anything";
    ASSERT_EQ(a, b) << "dispatch orders diverged for seed " << seed;
    EXPECT_EQ(calendar.now(), reference.now());
    EXPECT_EQ(calendar.dispatched_events(), reference.dispatched_events());
  }
}

// A fixed scenario aimed at the queue's edges: run_until deadlines exactly
// on, between, and before event times; scheduling into a bucket the cursor
// already passed; and draining an overflow-only queue.
template <typename EngineT>
DispatchLog run_until_scenario(EngineT& e) {
  DispatchLog log;
  const auto mark = [&log, &e](int id) { log.emplace_back(e.now(), id); };
  for (int i = 0; i < 4; ++i) {
    e.schedule_at(100, [&mark, i] { mark(i); });
  }
  e.schedule_at(101, [&mark] { mark(10); });
  e.schedule_at(500'000, [&mark] { mark(11); });  // overflow band
  e.run_until(99);  // peeks but dispatches nothing
  log.emplace_back(e.now(), -1);
  e.run_until(100);  // the burst fires; 101 stays queued
  log.emplace_back(e.now(), -2);
  e.schedule_at(100, [&mark] { mark(12); });  // == now(), cursor passed it
  e.run_until(101);
  log.emplace_back(e.now(), -3);
  // Only the overflow event remains; add a nearer one, then drain.
  e.schedule_at(200'000, [&mark] { mark(13); });
  e.run();
  log.emplace_back(e.now(), -4);
  log.emplace_back(static_cast<MicroSec>(e.pending_events()), -5);
  return log;
}

TEST(EngineDifferential, RunUntilBoundariesMatch) {
  Engine calendar;
  HeapEngine reference;
  EXPECT_EQ(run_until_scenario(calendar), run_until_scenario(reference));
}

TEST(EngineDifferential, FarFutureOnlySchedulesMatch) {
  // Every event beyond the initial window: exercises repeated migration,
  // including events that re-enter the overflow band after a rebase.
  const auto scenario = [](auto& e) {
    DispatchLog log;
    for (int i = 0; i < 40; ++i) {
      const auto at = static_cast<MicroSec>(1'000'000 + 270'000 * i);
      e.schedule_at(at, [&log, &e, i] {
        log.emplace_back(e.now(), i);
        if (i % 3 == 0) {
          e.schedule_in(650'000, [&log, &e, i] {
            log.emplace_back(e.now(), 1000 + i);
          });
        }
      });
    }
    e.run();
    return log;
  };
  Engine calendar;
  HeapEngine reference;
  EXPECT_EQ(scenario(calendar), scenario(reference));
}

TEST(EngineDifferential, StudyDigestMatchesPin) {
  core::StudyConfig config;
  config.workload.scale = 0.05;
  config.workload.seed = 42;
  const auto out = oracle::run_study(config);

  ASSERT_GT(out.raw.record_count(), 0u);
  EXPECT_EQ(out.raw.digest(), kScale005Digest);

  // CI's perf-smoke job cross-checks bench/perf_study against this run:
  // export CHARISMA_DIGEST_OUT=<path> and the digest lands there in the
  // same 0x%016llx format perf_study writes into BENCH_study.json.
  if (const char* path = std::getenv("CHARISMA_DIGEST_OUT")) {
    std::FILE* f = std::fopen(path, "w");
    ASSERT_NE(f, nullptr) << "cannot write digest to " << path;
    std::fprintf(f, "0x%016llx\n",
                 static_cast<unsigned long long>(out.raw.digest()));
    std::fclose(f);
  }
}

}  // namespace
}  // namespace charisma::sim
