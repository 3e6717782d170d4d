// The determinism self-check: the engine's contract says a (seed, config)
// pair always produces the identical event interleaving, so the same study
// run twice must yield byte-identical traces.  Every figure and table bench
// silently depends on this; here it is asserted mechanically via the trace
// digest (an order-sensitive hash of the on-disk encoding).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "support/materialized_study.hpp"

namespace charisma {
namespace {

constexpr double kScale = 0.05;  // small but exercises every subsystem

TEST(Determinism, SameSeedSameConfigYieldsByteIdenticalTraces) {
  const auto first = oracle::run_study_at_scale(kScale, 1234);
  const auto second = oracle::run_study_at_scale(kScale, 1234);

  ASSERT_GT(first.raw.record_count(), 0u);
  EXPECT_EQ(first.raw.record_count(), second.raw.record_count());
  EXPECT_EQ(first.raw.blocks.size(), second.raw.blocks.size());
  EXPECT_EQ(first.sim_end, second.sim_end);
  EXPECT_EQ(first.raw.digest(), second.raw.digest());

  // The postprocessed (clock-corrected, sorted) view must agree too.
  ASSERT_EQ(first.sorted.records.size(), second.sorted.records.size());
  for (std::size_t i = 0; i < first.sorted.records.size(); ++i) {
    std::uint8_t a[trace::Record::kEncodedSize];
    std::uint8_t b[trace::Record::kEncodedSize];
    first.sorted.records[i].encode(a);
    second.sorted.records[i].encode(b);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0) << "record " << i << " differs";
  }
}

TEST(Determinism, DifferentSeedsYieldDifferentTraces) {
  const auto first = oracle::run_study_at_scale(kScale, 1);
  const auto second = oracle::run_study_at_scale(kScale, 2);
  EXPECT_NE(first.raw.digest(), second.raw.digest());
}

TEST(Determinism, DigestSurvivesSerializationRoundTrip) {
  const auto study = oracle::run_study_at_scale(kScale, 7);
  const std::string path =
      ::testing::TempDir() + "charisma_determinism.chtr";
  study.raw.write(path);
  const auto reread = trace::TraceFile::read(path);
  std::remove(path.c_str());
  EXPECT_EQ(study.raw.digest(), reread.digest());
  EXPECT_EQ(study.raw.record_count(), reread.record_count());
}

}  // namespace
}  // namespace charisma
