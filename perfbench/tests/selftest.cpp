// Checks of the benchmark's own arithmetic: the percentile rule, self time
// of nested spans, failure accounting and latency timed from due time.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Quantile, InterpolatesLinearlyBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(TailPercentile, HighestLadderStepWithTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(39), 50.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(100000), 99.99);
}

TEST(Summarize, SmallSampleReportsMaximumAsTail) {
  const Summary s = summarize({5.0, 1.0, 9.0, 3.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.p50, 4.0);
  EXPECT_DOUBLE_EQ(s.tail, 9.0);
  EXPECT_EQ(s.tail_pct, 100.0);
}

TEST(Summarize, LargeSampleReportsP99) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_DOUBLE_EQ(s.tail, quantile(v, 0.99));
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  // Exactly ten samples lie beyond the reported percentile.
  int beyond = 0;
  for (double x : v) beyond += x > s.tail;
  EXPECT_EQ(beyond, 10);
}

TEST(Summarize, GroupsTakeMedianOfMediansAndLargestTail) {
  std::vector<std::vector<double>> groups(3);
  for (int i = 0; i < 30; ++i) {
    groups[0].push_back(1.0);
    groups[1].push_back(10.0 + i);
    groups[2].push_back(100.0);
  }
  const Summary s = summarize_groups(groups);
  EXPECT_DOUBLE_EQ(s.p50, quantile(groups[1], 0.5));
  EXPECT_DOUBLE_EQ(s.tail, 100.0);
  EXPECT_EQ(s.n, 90u);
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  Tracer t(true);
  const int root = t.add("root", 0.0, 10.0);
  const int child = t.add("child", 1.0, 4.0, 0, root);
  t.add("grandchild", 2.0, 3.0, 0, child);
  t.add("sibling", 6.0, 7.5, 0, root);
  const std::vector<double> self = t.self_times();
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 3.0 - 1.5);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 1.5);
  // Self times of a tree add up to the root's duration.
  EXPECT_DOUBLE_EQ(self[0] + self[1] + self[2] + self[3], 10.0);
}

TEST(SelfTime, OverlappingChildrenAreCountedOnce) {
  Tracer t(true);
  const int root = t.add("phase", 0.0, 10.0);
  t.add("request", 1.0, 5.0, 1, root);
  t.add("request", 3.0, 8.0, 2, root);
  t.add("request", 9.0, 12.0, 3, root);  // clipped at the parent's end
  EXPECT_DOUBLE_EQ(t.self_times()[0], 10.0 - 7.0 - 1.0);
}

TEST(SelfTime, ScopesNestOnTheOpenStack) {
  Tracer t(true);
  {
    Tracer::Scope a(t, "outer");
    Tracer::Scope b(t, "inner");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_LE(t.spans()[0].start, t.spans()[1].start);
  EXPECT_GE(t.spans()[0].end, t.spans()[1].end);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer t(false);
  { Tracer::Scope a(t, "outer"); }
  EXPECT_EQ(t.add("x", 0.0, 1.0), -1);
  EXPECT_TRUE(t.spans().empty());
}

TEST(Tally, CountsFailuresAgainstAttempts) {
  Tally t;
  EXPECT_EQ(t.failed_frac(), 0.0);
  EXPECT_TRUE(t.record(true));
  EXPECT_FALSE(t.record(false));
  t.record(true);
  t.record(true);
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 1u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.25);
}

TEST(Latency, TimedFromDueTimeNotSendTime) {
  // Due at 1.0, sent late at 1.5 by a stalled generator, answered at 2.0:
  // the request waited 1.0, of which 0.5 was the generator's lag.
  EXPECT_DOUBLE_EQ(latency_from_due(1.0, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(generator_lag(1.0, 1.5), 0.5);
  EXPECT_DOUBLE_EQ(generator_lag(1.0, 0.9), 0.0);
  // A stall delays every request queued behind it.
  const double stall_end = 3.0;
  std::vector<double> lat;
  for (int i = 0; i < 4; ++i) {
    const double due = 1.0 + 0.5 * i;
    const double sent = std::max(due, stall_end);
    lat.push_back(latency_from_due(due, sent + 0.1));
  }
  EXPECT_DOUBLE_EQ(lat[0], 2.1);
  EXPECT_DOUBLE_EQ(lat[3], 0.6);
}

}  // namespace
}  // namespace perfbench
