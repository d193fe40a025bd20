#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace hyperm::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(BucketsTest, LinearLayout) {
  const Buckets b = Buckets::Linear(0.0, 10.0, 5);
  ASSERT_EQ(b.edges.size(), 6u);
  EXPECT_DOUBLE_EQ(b.edges.front(), 0.0);
  EXPECT_DOUBLE_EQ(b.edges.back(), 10.0);
  EXPECT_DOUBLE_EQ(b.edges[1], 2.0);
}

TEST(BucketsTest, ExponentialLayout) {
  const Buckets b = Buckets::Exponential(1.0, 2.0, 4);
  ASSERT_EQ(b.edges.size(), 5u);
  EXPECT_DOUBLE_EQ(b.edges[0], 1.0);
  EXPECT_DOUBLE_EQ(b.edges[4], 16.0);
}

TEST(HistogramTest, RoutesValuesToInnerBuckets) {
  Histogram h(Buckets::Explicit({0.0, 1.0, 2.0, 4.0}));
  h.Observe(0.0);   // [0,1)
  h.Observe(0.99);  // [0,1)
  h.Observe(1.0);   // [1,2) — lower edge is inclusive
  h.Observe(3.9);   // [2,4)
  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.underflow, 0u);
  EXPECT_EQ(s.overflow, 0u);
  EXPECT_EQ(s.count, 4u);
}

TEST(HistogramTest, UnderflowAndOverflowAreExplicit) {
  Histogram h(Buckets::Explicit({0.0, 1.0}));
  h.Observe(-0.001);  // below e0 -> underflow
  h.Observe(1.0);     // at the last edge -> overflow (buckets are half-open)
  h.Observe(100.0);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.underflow, 1u);
  EXPECT_EQ(s.overflow, 2u);
  EXPECT_EQ(s.counts[0], 0u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, -0.001);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

// NaN compares false against every edge, so a bucket search would run past
// the last inner bucket; it is counted as overflow and leaves sum, min and
// max alone.
TEST(HistogramTest, NanLandsInOverflow) {
  Histogram h(Buckets::Linear(0.0, 10.0, 5));
  h.Observe(4.0);
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.ObserveN(std::numeric_limits<double>::quiet_NaN(), 3);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.overflow, 4u);
  EXPECT_EQ(s.underflow, 0u);
  EXPECT_EQ(s.counts, (std::vector<uint64_t>{0, 0, 1, 0, 0}));
  EXPECT_DOUBLE_EQ(s.sum, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(HistogramTest, EmptySnapshot) {
  Histogram h(Buckets::Linear(0.0, 1.0, 2));
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min, std::numeric_limits<double>::infinity());
  EXPECT_EQ(s.max, -std::numeric_limits<double>::infinity());
}

TEST(HistogramTest, ResetKeepsLayout) {
  Histogram h(Buckets::Linear(0.0, 1.0, 2));
  h.Observe(0.25);
  h.Reset();
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  ASSERT_EQ(s.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(s.edges[1], 0.5);
}

TEST(RegistryTest, HandlesAreStableAcrossReset) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  c.Add(7);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  // Same name resolves to the same handle; value survives via the handle.
  c.Add(3);
  EXPECT_EQ(registry.GetCounter("test.counter").value(), 3u);
}

TEST(RegistryTest, HistogramLayoutFixedByFirstRegistration) {
  MetricsRegistry registry;
  Histogram& first = registry.GetHistogram("test.h", Buckets::Linear(0.0, 1.0, 2));
  Histogram& again = registry.GetHistogram("test.h", Buckets::Linear(0.0, 100.0, 50));
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(first.Snapshot().edges.size(), 3u);
}

TEST(RegistryTest, SnapshotCopiesAllKinds) {
  MetricsRegistry registry;
  registry.GetCounter("c").Add(1);
  registry.GetGauge("g").Set(2.0);
  registry.GetHistogram("h", Buckets::Linear(0.0, 1.0, 1)).Observe(0.5);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.counters.at("c"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.0);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);
}

TEST(QuantileTest, InterpolatesInsideBuckets) {
  // 100 uniform observations over [0, 100): quantiles land on the exact
  // interpolated rank positions.
  Histogram h(Buckets::Linear(0.0, 100.0, 10));
  for (int i = 0; i < 100; ++i) h.Observe(static_cast<double>(i) + 0.5);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.99), 99.0);
}

TEST(QuantileTest, EmptyHistogramReportsZero) {
  Histogram h(Buckets::Linear(0.0, 1.0, 2));
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.99), 0.0);
}

TEST(QuantileTest, UnderflowAndOverflowRanksReportMinAndMax) {
  Histogram h(Buckets::Explicit({10.0, 20.0}));
  h.Observe(5.0);    // underflow; becomes min
  h.Observe(15.0);   // inner bucket
  h.Observe(100.0);  // overflow; becomes max
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 5.0);    // rank in the underflow bucket
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);  // rank in the overflow bucket
}

TEST(QuantileTest, EstimateIsClampedToObservedRange) {
  // One observation at 0.25 in a [0, 1) bucket: naive interpolation would
  // report 0.5, but no observed value exceeds 0.25.
  Histogram h(Buckets::Linear(0.0, 1.0, 1));
  h.Observe(0.25);
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(0.5), 0.25);
  // Out-of-range q is clamped rather than extrapolated.
  EXPECT_DOUBLE_EQ(h.Snapshot().Quantile(2.0), 0.25);
}

}  // namespace
}  // namespace hyperm::obs
