// JSON exporters for metrics snapshots and span traces.
//
// Every bench binary writes one machine-readable report next to its text
// table so perf trajectories can be tracked across commits (the BENCH_*.json
// series). Report schema (schema_version 1, documented in DESIGN.md):
//
//   {
//     "schema_version": 1,
//     "run_meta":  { "bench": "...", "scale": "...", ...free-form strings },
//     "metrics": {
//       "counters":   { name: integer, ... },
//       "gauges":     { name: number, ... },
//       "histograms": { name: { "edges": [...], "counts": [...],
//                               "underflow": n, "overflow": n, "count": n,
//                               "sum": x, "min": x, "max": x,
//                               "p50": x, "p95": x, "p99": x }, ... }
//     },
//     "spans": [ { "id": n, "parent": n, "depth": n, "name": "...",
//                  "start_us": x, "dur_us": x }, ... ],
//     "dropped_spans": n,
//     "dropped_events": n
//   }
//
// p50/p95/p99 are bucket-interpolated quantiles (HistogramSnapshot::Quantile)
// and dropped_events is the flight recorder's saturation count; both are
// additive to schema 1 (MetricsFromJson ignores unknown histogram keys).

#ifndef HYPERM_OBS_EXPORT_H_
#define HYPERM_OBS_EXPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperm::obs {

/// Identifies one bench/experiment run in its exported report.
struct RunMeta {
  std::string bench;             ///< binary / experiment name
  std::string scale = "default"; ///< "default" or "paper"
  std::map<std::string, std::string> extra;  ///< free-form key/values
};

inline constexpr int kReportSchemaVersion = 1;

/// Builds the full report document. `dropped_spans`/`dropped_events` record
/// tracer and flight-recorder buffer saturation at snapshot time.
Json ReportToJson(const RunMeta& meta, const MetricsSnapshot& metrics,
                  const std::vector<SpanRecord>& spans, uint64_t dropped_spans = 0,
                  uint64_t dropped_events = 0);

/// Inverse of the metrics part of ReportToJson; accepts either a full report
/// document or just its "metrics" object. Used by merge tooling and the
/// round-trip tests.
Result<MetricsSnapshot> MetricsFromJson(const Json& json);

/// Serializes and writes the report (pretty-printed JSON) to `path`.
Status WriteReportFile(const std::string& path, const RunMeta& meta,
                       const MetricsSnapshot& metrics,
                       const std::vector<SpanRecord>& spans,
                       uint64_t dropped_spans = 0, uint64_t dropped_events = 0);

/// Convenience: snapshot the global registry + tracer + event log and write
/// the report (saturation counts included).
Status WriteGlobalReport(const std::string& path, const RunMeta& meta);

}  // namespace hyperm::obs

#endif  // HYPERM_OBS_EXPORT_H_
