// Unit tests of the benchmark's own arithmetic: the percentile rule, the
// slo_rate ladder and its backlog check, and span self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(QuantileTest, NearestRank) {
  const std::vector<double> v = Ramp(10);
  EXPECT_EQ(QuantileSorted(v, 0.5), 5);
  EXPECT_EQ(QuantileSorted(v, 0.51), 6);
  EXPECT_EQ(QuantileSorted(v, 1.0), 10);
  EXPECT_EQ(QuantileSorted(v, 0.0), 1);
  EXPECT_EQ(QuantileSorted({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(ReportableTailTest, ReadsTheWantedPercentileWithTenBeyond) {
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
  const Tail tail = ReportableTail(Ramp(1000), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.99);
  EXPECT_EQ(tail.value, 990);
  EXPECT_EQ(tail.samples, 1000u);
}

TEST(ReportableTailTest, FallsBackToTheHighestPercentileWithTenBeyond) {
  // 500 samples cannot support p99 (5 beyond); p98 leaves 10.
  const Tail tail = ReportableTail(Ramp(500), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.98);
  EXPECT_EQ(tail.value, 490);
  const std::vector<double> v = Ramp(500);
  int beyond = 0;
  for (double x : v) beyond += x > tail.value ? 1 : 0;
  EXPECT_EQ(beyond, 10);
}

TEST(ReportableTailTest, NeverDropsBelowTheMedian) {
  const Tail tail = ReportableTail(Ramp(12), 0.99);
  EXPECT_DOUBLE_EQ(tail.quantile, 0.5);
  EXPECT_EQ(tail.value, 6);
  EXPECT_EQ(ReportableTail({}, 0.99).samples, 0u);
}

TEST(ReportableTailTest, SortsItsInput) {
  std::vector<double> v = Ramp(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(ReportableTail(v, 0.99).value, 1980);
}

TEST(BacklogTest, FlatBacklogDoesNotGrow) {
  const std::vector<double> flat = {3, 5, 2, 4, 6, 3, 2, 5, 4};
  EXPECT_FALSE(BacklogGrows(flat, 10));
}

TEST(BacklogTest, RisingBacklogGrowsPastTheSlack) {
  std::vector<double> rising;
  for (int i = 0; i < 30; ++i) rising.push_back(10.0 * i);
  // First third averages 45, last third 245: growth 200.
  EXPECT_TRUE(BacklogGrows(rising, 100));
  EXPECT_FALSE(BacklogGrows(rising, 250));
}

TEST(BacklogTest, TooFewSamplesNeverGrow) {
  EXPECT_FALSE(BacklogGrows(std::vector<double>{0, 1000}, 1));
  EXPECT_FALSE(BacklogGrows(std::vector<double>{}, 1));
}

TEST(SloRateTest, HighestPassingRungOfTheLadder) {
  const std::vector<Rung> ladder = {
      {3000, 80'000, false}, {750, 12'000, false}, {1500, 14'000, false},
      {2250, 30'000, false}};
  EXPECT_EQ(SloRate(ladder, 50'000), 2250);
  EXPECT_EQ(SloRate(ladder, 20'000), 1500);
  EXPECT_EQ(SloRate(ladder, 5'000), 0);
}

TEST(SloRateTest, AGrowingBacklogFailsTheRung) {
  const std::vector<Rung> ladder = {
      {750, 12'000, false}, {1500, 14'000, true}, {2250, 15'000, false}};
  EXPECT_EQ(SloRate(ladder, 50'000), 750);
}

TEST(SloRateTest, APassAboveAFailingRungDoesNotCount) {
  const std::vector<Rung> ladder = {
      {750, 12'000, false}, {1500, 60'000, false}, {2250, 15'000, false}};
  EXPECT_EQ(SloRate(ladder, 50'000), 750);
}

TEST(CoveredTest, UnionOfClippedChildren) {
  const Interval parent{100, 200};
  EXPECT_EQ(CoveredNs(parent, {}), 0);
  EXPECT_EQ(CoveredNs(parent, {{110, 120}, {130, 150}}), 30);
  // Overlapping children count once.
  EXPECT_EQ(CoveredNs(parent, {{110, 140}, {120, 150}}), 40);
  // Children are clipped to the parent.
  EXPECT_EQ(CoveredNs(parent, {{50, 120}, {190, 260}}), 30);
  // Nested and disjoint out-of-range children.
  EXPECT_EQ(CoveredNs(parent, {{110, 190}, {120, 130}, {300, 400}}), 80);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, DurationMinusDirectChildren) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),    // root
      MakeSpan(2, 1, 10, 40),    // child of 1
      MakeSpan(3, 1, 30, 60),    // child of 1, overlaps 2
      MakeSpan(4, 2, 15, 25),    // grandchild: only counts against 2
      MakeSpan(5, 99, 0, 50),    // parent not recorded: all self time
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 50);  // children cover [10, 60)
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 50);
}

TEST(TracerTest, ScopesNestOnOneThread) {
  Tracer tracer;
  {
    Tracer::Scope outer(&tracer, SpanKind::kAnswerBatch, 0, 7);
    Tracer::Scope inner(&tracer, SpanKind::kPi, 0);
  }
  tracer.Record(SpanKind::kCompletion, 5, 9, 7);
  const std::vector<Span> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  const Span& inner = spans[0];  // closes first
  const Span& outer = spans[1];
  EXPECT_EQ(inner.kind, SpanKind::kPi);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(outer.request, 7u);
  EXPECT_LE(outer.start_ns, inner.start_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
  EXPECT_EQ(spans[2].end_ns - spans[2].start_ns, 4);
  EXPECT_EQ(tracer.dropped(), 0);
}

TEST(TracerTest, NullTracerScopeIsANoOp) {
  Tracer::Scope scope(nullptr, SpanKind::kIntern);
  SUCCEED();
}

}  // namespace
}  // namespace perfbench
