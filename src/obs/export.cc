#include "obs/export.h"

#include <cstdio>

namespace hyperm::obs {
namespace {

Json HistogramToJson(const HistogramSnapshot& h) {
  Json out = Json::Object();
  Json edges = Json::Array();
  for (double e : h.edges) edges.Append(Json(e));
  out.Set("edges", std::move(edges));
  Json counts = Json::Array();
  for (uint64_t c : h.counts) counts.Append(Json(c));
  out.Set("counts", std::move(counts));
  out.Set("underflow", Json(h.underflow));
  out.Set("overflow", Json(h.overflow));
  out.Set("count", Json(h.count));
  out.Set("sum", Json(h.sum));
  // An empty histogram has min=+inf/max=-inf, which JSON cannot carry; 0 is
  // the conventional empty value (count==0 disambiguates).
  out.Set("min", Json(h.count == 0 ? 0.0 : h.min));
  out.Set("max", Json(h.count == 0 ? 0.0 : h.max));
  // Tail quantiles (bucket interpolation); mean alone hides tail latency.
  // An empty histogram has no quantiles at all — Quantile() returns 0 there,
  // and writing that 0 would pollute p99 fields downstream (a dashboard
  // cannot tell "no samples" from "instant"), so the keys are omitted
  // entirely (count==0 is the marker; HistogramFromJson never reads them).
  if (h.count > 0) {
    out.Set("p50", Json(h.Quantile(0.50)));
    out.Set("p95", Json(h.Quantile(0.95)));
    out.Set("p99", Json(h.Quantile(0.99)));
  }
  return out;
}

Result<HistogramSnapshot> HistogramFromJson(const Json& json) {
  if (!json.is_object()) return InvalidArgumentError("histogram: not an object");
  HistogramSnapshot h;
  const Json* edges = json.Find("edges");
  const Json* counts = json.Find("counts");
  if (edges == nullptr || !edges->is_array() || counts == nullptr ||
      !counts->is_array()) {
    return InvalidArgumentError("histogram: missing edges/counts arrays");
  }
  for (const Json& e : edges->items()) {
    if (!e.is_number()) return InvalidArgumentError("histogram: non-numeric edge");
    h.edges.push_back(e.as_number());
  }
  for (const Json& c : counts->items()) {
    if (!c.is_number()) return InvalidArgumentError("histogram: non-numeric count");
    h.counts.push_back(static_cast<uint64_t>(c.as_number()));
  }
  if (h.edges.size() != h.counts.size() + 1) {
    return InvalidArgumentError("histogram: edges/counts size mismatch");
  }
  const auto number_field = [&json](const char* key, double fallback) {
    const Json* v = json.Find(key);
    return v != nullptr && v->is_number() ? v->as_number() : fallback;
  };
  h.underflow = static_cast<uint64_t>(number_field("underflow", 0));
  h.overflow = static_cast<uint64_t>(number_field("overflow", 0));
  h.count = static_cast<uint64_t>(number_field("count", 0));
  h.sum = number_field("sum", 0.0);
  if (h.count == 0) {
    h.min = std::numeric_limits<double>::infinity();
    h.max = -std::numeric_limits<double>::infinity();
  } else {
    h.min = number_field("min", 0.0);
    h.max = number_field("max", 0.0);
  }
  return h;
}

}  // namespace

Json ReportToJson(const RunMeta& meta, const MetricsSnapshot& metrics,
                  const std::vector<SpanRecord>& spans, uint64_t dropped_spans,
                  uint64_t dropped_events) {
  Json report = Json::Object();
  report.Set("schema_version", Json(kReportSchemaVersion));

  Json run_meta = Json::Object();
  run_meta.Set("bench", Json(meta.bench));
  run_meta.Set("scale", Json(meta.scale));
  for (const auto& [key, value] : meta.extra) run_meta.Set(key, Json(value));
  report.Set("run_meta", std::move(run_meta));

  Json counters = Json::Object();
  for (const auto& [name, value] : metrics.counters) counters.Set(name, Json(value));
  Json gauges = Json::Object();
  for (const auto& [name, value] : metrics.gauges) gauges.Set(name, Json(value));
  Json histograms = Json::Object();
  for (const auto& [name, h] : metrics.histograms) {
    histograms.Set(name, HistogramToJson(h));
  }
  Json metrics_json = Json::Object();
  metrics_json.Set("counters", std::move(counters));
  metrics_json.Set("gauges", std::move(gauges));
  metrics_json.Set("histograms", std::move(histograms));
  report.Set("metrics", std::move(metrics_json));

  Json spans_json = Json::Array();
  for (const SpanRecord& span : spans) {
    Json s = Json::Object();
    s.Set("id", Json(static_cast<int>(span.id)));
    s.Set("parent", Json(static_cast<int>(span.parent)));
    s.Set("depth", Json(static_cast<int>(span.depth)));
    s.Set("name", Json(span.name));
    s.Set("start_us", Json(span.start_us));
    s.Set("dur_us", Json(span.duration_us));
    spans_json.Append(std::move(s));
  }
  report.Set("spans", std::move(spans_json));
  report.Set("dropped_spans", Json(dropped_spans));
  // Flight-recorder saturation (event_log.h); check_report warns when a
  // report was produced from a saturated buffer.
  report.Set("dropped_events", Json(dropped_events));
  return report;
}

Result<MetricsSnapshot> MetricsFromJson(const Json& json) {
  const Json* metrics = json.Find("metrics");
  if (metrics == nullptr) metrics = &json;  // accept a bare metrics object
  if (!metrics->is_object()) return InvalidArgumentError("metrics: not an object");
  MetricsSnapshot snap;
  if (const Json* counters = metrics->Find("counters"); counters != nullptr) {
    if (!counters->is_object()) return InvalidArgumentError("counters: not an object");
    for (const auto& [name, value] : counters->members()) {
      if (!value.is_number()) return InvalidArgumentError("counter: not a number");
      snap.counters[name] = static_cast<uint64_t>(value.as_number());
    }
  }
  if (const Json* gauges = metrics->Find("gauges"); gauges != nullptr) {
    if (!gauges->is_object()) return InvalidArgumentError("gauges: not an object");
    for (const auto& [name, value] : gauges->members()) {
      if (!value.is_number()) return InvalidArgumentError("gauge: not a number");
      snap.gauges[name] = value.as_number();
    }
  }
  if (const Json* histograms = metrics->Find("histograms"); histograms != nullptr) {
    if (!histograms->is_object()) {
      return InvalidArgumentError("histograms: not an object");
    }
    for (const auto& [name, value] : histograms->members()) {
      HM_ASSIGN_OR_RETURN(HistogramSnapshot h, HistogramFromJson(value));
      snap.histograms[name] = std::move(h);
    }
  }
  return snap;
}

Status WriteReportFile(const std::string& path, const RunMeta& meta,
                       const MetricsSnapshot& metrics,
                       const std::vector<SpanRecord>& spans, uint64_t dropped_spans,
                       uint64_t dropped_events) {
  const std::string text =
      ReportToJson(meta, metrics, spans, dropped_spans, dropped_events).Dump(2);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return InternalError("cannot open report file: " + path);
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool flushed = std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || written != text.size() || !flushed) {
    return InternalError("short write to report file: " + path);
  }
  return OkStatus();
}

Status WriteGlobalReport(const std::string& path, const RunMeta& meta) {
  return WriteReportFile(path, meta, MetricsRegistry::Global().Snapshot(),
                         Tracer::Global().spans(), Tracer::Global().dropped(),
                         EventLog::Global().dropped());
}

}  // namespace hyperm::obs
