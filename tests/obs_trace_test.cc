#include "obs/trace.h"

#include <gtest/gtest.h>

namespace hyperm::obs {
namespace {

TEST(TracerTest, RecordsNestedSpansInStartOrder) {
  Tracer tracer;
  const int outer = tracer.Begin("build");
  const int inner = tracer.Begin("build/publish");
  tracer.End(inner);
  const int sibling = tracer.Begin("build/overlays");
  tracer.End(sibling);
  tracer.End(outer);

  const std::vector<SpanRecord>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "build");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "build/publish");
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "build/overlays");
  EXPECT_EQ(spans[2].parent, outer);
  EXPECT_EQ(spans[2].depth, 1);
  for (const SpanRecord& s : spans) {
    EXPECT_GE(s.duration_us, 0.0) << s.name << " should be closed";
    EXPECT_GE(s.start_us, 0.0);
  }
  // Children start no earlier than their parent.
  EXPECT_GE(spans[1].start_us, spans[0].start_us);
  EXPECT_EQ(tracer.open_depth(), 0);
}

TEST(TracerTest, OpenSpanHasNegativeDuration) {
  Tracer tracer;
  const int id = tracer.Begin("open");
  EXPECT_EQ(tracer.spans()[0].duration_us, -1.0);
  EXPECT_EQ(tracer.open_depth(), 1);
  tracer.End(id);
  EXPECT_GE(tracer.spans()[0].duration_us, 0.0);
}

TEST(TracerTest, DropsBeyondCapacity) {
  Tracer tracer;
  tracer.set_capacity(2);
  const int a = tracer.Begin("a");
  const int b = tracer.Begin("b");
  const int c = tracer.Begin("c");  // over capacity -> dropped
  EXPECT_EQ(c, -1);
  EXPECT_EQ(tracer.dropped(), 1u);
  EXPECT_EQ(tracer.spans().size(), 2u);
  tracer.End(c);  // no-op
  tracer.End(b);
  tracer.End(a);
  EXPECT_EQ(tracer.open_depth(), 0);
}

TEST(TracerTest, ResetClearsSpansAndEpoch) {
  Tracer tracer;
  tracer.set_capacity(1);
  tracer.End(tracer.Begin("x"));
  EXPECT_EQ(tracer.Begin("dropped"), -1);
  tracer.Reset();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  const int id = tracer.Begin("fresh");
  EXPECT_EQ(id, 0);
  tracer.End(id);
}

TEST(ScopedSpanTest, ClosesOnScopeExit) {
  Tracer tracer;
  {
    ScopedSpan span("scoped", tracer);
    EXPECT_EQ(tracer.open_depth(), 1);
  }
  EXPECT_EQ(tracer.open_depth(), 0);
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_GE(tracer.spans()[0].duration_us, 0.0);
}

TEST(ScopedTimerTest, ObservesElapsedMicroseconds) {
  Histogram h(Buckets::Exponential(1.0, 10.0, 9));
  { ScopedTimer timer(h); }
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_GE(s.min, 0.0);
}

TEST(MacroTest, SpanMacroRecordsIntoGlobalTracer) {
  Tracer::Global().Reset();
  {
    HM_OBS_SPAN("macro/test");
  }
  ASSERT_EQ(Tracer::Global().spans().size(), 1u);
  EXPECT_EQ(Tracer::Global().spans()[0].name, "macro/test");
  Tracer::Global().Reset();
}

TEST(MacroTest, MetricMacrosRecordIntoGlobalRegistry) {
  MetricsRegistry::Global().Reset();
  HM_OBS_COUNTER_ADD("macro.counter", 2);
  HM_OBS_GAUGE_SET("macro.gauge", 1.5);
  HM_OBS_HISTOGRAM("macro.hist", Buckets::Linear(0.0, 1.0, 2), 0.25);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("macro.counter"), 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("macro.gauge"), 1.5);
  EXPECT_EQ(snap.histograms.at("macro.hist").count, 1u);
  MetricsRegistry::Global().Reset();
}

}  // namespace
}  // namespace hyperm::obs
