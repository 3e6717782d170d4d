// Figure-aggregation unit tests: fixed grids, curve collection from a
// synthetic trace, and the pointwise envelope fold (hand-computed bands).
#include "analysis/figures.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/stats.hpp"

namespace charisma::analysis {
namespace {

using trace::EventKind;

trace::Record rec(EventKind kind, cfs::JobId job, cfs::NodeId node,
                  cfs::FileId file, std::int64_t offset = 0,
                  std::int64_t bytes = 0, util::MicroSec t = 0) {
  trace::Record r;
  r.kind = kind;
  r.job = job;
  r.node = node;
  r.file = file;
  r.offset = offset;
  r.bytes = bytes;
  r.timestamp = t;
  return r;
}

TEST(FigureGrids, AreFixedAndOrdered) {
  const auto fracs = fraction_grid();
  ASSERT_EQ(fracs.size(), 21u);
  EXPECT_EQ(fracs.front(), 0.0);
  EXPECT_EQ(fracs.back(), 1.0);
  EXPECT_DOUBLE_EQ(fracs[15], 0.75);  // the Figure 8 anchor position

  const auto sizes = request_size_grid();
  ASSERT_FALSE(sizes.empty());
  EXPECT_DOUBLE_EQ(sizes.front(), 64.0);
  EXPECT_GE(sizes.back(), 3.2e7);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_GT(sizes[i], sizes[i - 1]);
  }

  const auto buffers = fig9_buffer_grid();
  ASSERT_EQ(buffers.size(), 7u);
  EXPECT_EQ(buffers.front(), 250.0);
  EXPECT_EQ(buffers.back(), 16000.0);
}

TEST(FigureSetTest, AddAndFind) {
  FigureSet set;
  set.add("a", {1.0, 2.0}, {0.5, 1.0});
  ASSERT_NE(set.find("a"), nullptr);
  EXPECT_EQ(set.find("a")->ys[0], 0.5);
  EXPECT_EQ(set.find("missing"), nullptr);
  EXPECT_THROW(set.add("bad", {1.0}, {0.5, 1.0}), util::CheckFailure);
}

TEST(CollectTraceFigures, EmptyTraceYieldsZeroedCurves) {
  trace::SortedTrace t;
  const SessionStore store(t);
  const FigureSet set = collect_trace_figures(store, analyze_request_sizes(t), 4096);
  ASSERT_EQ(set.curves.size(), 15u);  // figs 4-7 + tables; cache figs are core's
  for (const auto& c : set.curves) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.xs.size(), c.ys.size());
    for (double y : c.ys) {
      EXPECT_EQ(y, 0.0);  // "no observations", never NaN
    }
  }
}

TEST(CollectTraceFigures, RequestSizeCurveReflectsTheTrace) {
  // One job, one file: two 100-byte reads and one 1e6-byte read.
  trace::SortedTrace t;
  t.header.trace_start = 0;
  t.header.trace_end = 100;
  t.records = {
      rec(EventKind::kOpen, 1, 0, 5, 0, 0, 1),
      rec(EventKind::kRead, 1, 0, 5, 0, 100, 2),
      rec(EventKind::kRead, 1, 0, 5, 100, 100, 3),
      rec(EventKind::kRead, 1, 0, 5, 200, 1000000, 4),
      rec(EventKind::kClose, 1, 0, 5, 0, 0, 5),
  };
  const SessionStore store(t);
  const FigureSet set = collect_trace_figures(store, analyze_request_sizes(t), 4096);
  const FigureCurve* reads = set.find("fig4_reads");
  ASSERT_NE(reads, nullptr);
  // 2 of 3 requests are 100 bytes: every grid point in [100, 1e6) reads
  // 2/3, and the far end reaches 1.
  for (std::size_t i = 0; i < reads->xs.size(); ++i) {
    if (reads->xs[i] >= 100.0 && reads->xs[i] < 1e6) {
      EXPECT_NEAR(reads->ys[i], 2.0 / 3.0, 1e-12) << "x=" << reads->xs[i];
    }
  }
  EXPECT_DOUBLE_EQ(reads->ys.back(), 1.0);
  const FigureCurve* read_bytes = set.find("fig4_read_bytes");
  ASSERT_NE(read_bytes, nullptr);
  // By bytes the two small reads are 200 of 1000200 bytes moved.
  bool saw_small_share = false;
  for (std::size_t i = 0; i < read_bytes->xs.size(); ++i) {
    if (read_bytes->xs[i] >= 100.0 && read_bytes->xs[i] < 1e6) {
      EXPECT_NEAR(read_bytes->ys[i], 200.0 / 1000200.0, 1e-9);
      saw_small_share = true;
    }
  }
  EXPECT_TRUE(saw_small_share);
}

TEST(FoldEnvelopes, PointwiseBandsAreHandComputable) {
  FigureSet a, b, c;
  a.add("curve", {0.0, 1.0}, {0.2, 1.0});
  b.add("curve", {0.0, 1.0}, {0.4, 1.0});
  c.add("curve", {0.0, 1.0}, {0.6, 1.0});
  const auto envelopes = fold_envelopes({&a, &b, &c});
  ASSERT_EQ(envelopes.size(), 1u);
  const FigureEnvelope& env = envelopes[0];
  EXPECT_EQ(env.replications, 3u);
  ASSERT_EQ(env.size(), 2u);
  EXPECT_NEAR(env.mean[0], 0.4, 1e-12);
  EXPECT_EQ(env.min[0], 0.2);
  EXPECT_EQ(env.max[0], 0.6);
  // ci95 = 1.96 * stddev / sqrt(3) with sample stddev 0.2.
  EXPECT_NEAR(env.ci95_half[0], 1.96 * 0.2 / std::sqrt(3.0), 1e-12);
  // A column with zero spread keeps a zero-width interval.
  EXPECT_EQ(env.mean[1], 1.0);
  EXPECT_EQ(env.ci95_half[1], 0.0);
}

TEST(FoldEnvelopes, OrderFollowsFirstAppearance) {
  FigureSet a, b;
  a.add("second_alphabetically", {0.0}, {1.0});
  a.add("a_curve", {0.0}, {1.0});
  b.add("a_curve", {0.0}, {2.0});
  const auto envelopes = fold_envelopes({&a, &b});
  ASSERT_EQ(envelopes.size(), 2u);
  // Input order, not name order: the export layout is code-defined.
  EXPECT_EQ(envelopes[0].name, "second_alphabetically");
  EXPECT_EQ(envelopes[1].name, "a_curve");
  EXPECT_EQ(envelopes[1].replications, 2u);
  EXPECT_NEAR(envelopes[1].mean[0], 1.5, 1e-12);
}

TEST(FoldEnvelopes, NullAndEmptySetsAreSkipped) {
  FigureSet a;
  a.add("curve", {0.0}, {0.5});
  const FigureSet empty;
  const auto envelopes = fold_envelopes({nullptr, &empty, &a});
  ASSERT_EQ(envelopes.size(), 1u);
  EXPECT_EQ(envelopes[0].replications, 1u);
  EXPECT_EQ(envelopes[0].mean[0], 0.5);
  EXPECT_EQ(envelopes[0].ci95_half[0], 0.0);
  EXPECT_TRUE(fold_envelopes({}).empty());
}

}  // namespace
}  // namespace charisma::analysis
