#include "obs/export.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperm::obs {
namespace {

MetricsSnapshot SampleSnapshot() {
  MetricsRegistry registry;
  registry.GetCounter("net.hops").Add(12);
  registry.GetGauge("build.num_peers").Set(50.0);
  Histogram& h = registry.GetHistogram("can.route_hops", Buckets::Linear(0.0, 8.0, 4));
  h.Observe(1.0);
  h.Observe(3.0);
  h.Observe(100.0);  // overflow
  return registry.Snapshot();
}

std::vector<SpanRecord> SampleSpans() {
  Tracer tracer;
  const int build = tracer.Begin("build");
  tracer.End(tracer.Begin("build/publish"));
  tracer.End(build);
  return tracer.spans();
}

TEST(JsonTest, ParseRoundTripsDump) {
  Json obj = Json::Object();
  obj.Set("name", Json("hello \"quoted\"\n"));
  obj.Set("value", Json(42));
  obj.Set("fraction", Json(0.5));
  obj.Set("flag", Json(true));
  Json arr = Json::Array();
  arr.Append(Json());
  arr.Append(Json(-3));
  obj.Set("list", std::move(arr));

  Result<Json> back = Json::Parse(obj.Dump());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Dump(), obj.Dump());
  EXPECT_EQ(back->Find("name")->as_string(), "hello \"quoted\"\n");
  EXPECT_DOUBLE_EQ(back->Find("value")->as_number(), 42.0);
  EXPECT_TRUE(back->Find("list")->items()[0].is_null());
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  Json obj = Json::Object();
  obj.Set("a", Json(std::numeric_limits<double>::infinity()));
  obj.Set("b", Json(std::nan("")));
  const std::string text = obj.Dump();
  EXPECT_EQ(text, "{\"a\":null,\"b\":null}");
  Result<Json> back = Json::Parse(text);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Find("a")->is_null());
}

TEST(ExportTest, ReportCarriesSchemaAndMeta) {
  RunMeta meta;
  meta.bench = "unit_test";
  meta.scale = "paper";
  meta.extra["nodes"] = "100";
  const Json report = ReportToJson(meta, SampleSnapshot(), SampleSpans(), 3);
  EXPECT_EQ(static_cast<int>(report.Find("schema_version")->as_number()),
            kReportSchemaVersion);
  const Json* run_meta = report.Find("run_meta");
  EXPECT_EQ(run_meta->Find("bench")->as_string(), "unit_test");
  EXPECT_EQ(run_meta->Find("scale")->as_string(), "paper");
  EXPECT_EQ(run_meta->Find("nodes")->as_string(), "100");
  EXPECT_EQ(report.Find("spans")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(report.Find("dropped_spans")->as_number(), 3.0);
}

TEST(ExportTest, MetricsRoundTripThroughJson) {
  const MetricsSnapshot original = SampleSnapshot();
  const Json report = ReportToJson(RunMeta{}, original, {}, 0);
  Result<Json> reparsed = Json::Parse(report.Dump(2));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  Result<MetricsSnapshot> restored = MetricsFromJson(*reparsed);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->counters, original.counters);
  EXPECT_EQ(restored->gauges, original.gauges);
  ASSERT_EQ(restored->histograms.size(), 1u);
  const HistogramSnapshot& h = restored->histograms.at("can.route_hops");
  const HistogramSnapshot& o = original.histograms.at("can.route_hops");
  EXPECT_EQ(h.edges, o.edges);
  EXPECT_EQ(h.counts, o.counts);
  EXPECT_EQ(h.overflow, o.overflow);
  EXPECT_EQ(h.count, o.count);
  EXPECT_DOUBLE_EQ(h.sum, o.sum);
  EXPECT_DOUBLE_EQ(h.min, o.min);
  EXPECT_DOUBLE_EQ(h.max, o.max);
}

TEST(ExportTest, HistogramJsonCarriesTailQuantiles) {
  // Satellite of the flight-recorder PR: exported histograms surface
  // p50/p95/p99 so reports expose tail latency, not just the mean.
  const Json report = ReportToJson(RunMeta{}, SampleSnapshot(), {}, 0);
  const Json* h =
      report.Find("metrics")->Find("histograms")->Find("can.route_hops");
  ASSERT_NE(h, nullptr);
  // Observations 1, 3, 100 (overflow): the median interpolates inside the
  // [2,4) bucket; the tail ranks land in the overflow bucket and report max.
  EXPECT_DOUBLE_EQ(h->Find("p50")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(h->Find("p95")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(h->Find("p99")->as_number(), 100.0);
}

TEST(ExportTest, EmptyHistogramRoundTripsInfiniteMinMax) {
  MetricsRegistry registry;
  registry.GetHistogram("empty", Buckets::Linear(0.0, 1.0, 1));
  const Json report = ReportToJson(RunMeta{}, registry.Snapshot(), {}, 0);
  Result<MetricsSnapshot> restored = MetricsFromJson(report);
  ASSERT_TRUE(restored.ok());
  const HistogramSnapshot& h = restored->histograms.at("empty");
  EXPECT_EQ(h.count, 0u);
  EXPECT_TRUE(std::isinf(h.min) && h.min > 0);
  EXPECT_TRUE(std::isinf(h.max) && h.max < 0);
}

TEST(ExportTest, EmptyHistogramReportsNoQuantiles) {
  // Satellite of the serving PR: an empty histogram has no order statistics,
  // so the report must omit p50/p95/p99 entirely instead of emitting a
  // misleading 0.0 (a zero-valued p99 reads as "everything was instant").
  MetricsRegistry registry;
  registry.GetHistogram("empty", Buckets::Linear(0.0, 1.0, 1));
  const Json report = ReportToJson(RunMeta{}, registry.Snapshot(), {}, 0);
  const Json* h = report.Find("metrics")->Find("histograms")->Find("empty");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("p50"), nullptr);
  EXPECT_EQ(h->Find("p95"), nullptr);
  EXPECT_EQ(h->Find("p99"), nullptr);
  // One observation is enough to bring the quantile keys back.
  registry.GetHistogram("empty", Buckets::Linear(0.0, 1.0, 1)).Observe(0.5);
  const Json again = ReportToJson(RunMeta{}, registry.Snapshot(), {}, 0);
  EXPECT_NE(
      again.Find("metrics")->Find("histograms")->Find("empty")->Find("p50"),
      nullptr);
}

TEST(ExportTest, MetricsFromJsonAcceptsBareMetricsObject) {
  const Json report = ReportToJson(RunMeta{}, SampleSnapshot(), {}, 0);
  Result<MetricsSnapshot> restored = MetricsFromJson(*report.Find("metrics"));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->counters.at("net.hops"), 12u);
}

TEST(ExportTest, WriteReportFileProducesParseableJson) {
  const std::string path = ::testing::TempDir() + "/obs_export_test_report.json";
  RunMeta meta;
  meta.bench = "file_test";
  const Status status = WriteReportFile(path, meta, SampleSnapshot(), SampleSpans());
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Json> parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("run_meta")->Find("bench")->as_string(), "file_test");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hyperm::obs
