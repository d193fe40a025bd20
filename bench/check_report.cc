// bench-smoke validator: checks that a bench --json report conforms to the
// schema documented in obs/export.h (schema_version 1) and that it carries a
// useful amount of data: at least 10 named metrics and a nested span tree
// covering Build and one query path. Exits 0 on success, 1 with a diagnostic
// otherwise.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/result.h"
#include "obs/export.h"
#include "obs/json.h"

namespace hyperm {
namespace {

#define CHECK_REPORT(cond, what)                        \
  do {                                                  \
    if (!(cond)) {                                      \
      std::fprintf(stderr, "check_report: %s\n", what); \
      return 1;                                         \
    }                                                   \
  } while (0)

// Keys whose values are wall-clock derived and therefore nondeterministic
// run to run; they are schema-checked but never value-diffed.
bool IsWallClockKey(const std::string& key) {
  return key.find("_us") != std::string::npos ||
         key.find("wall") != std::string::npos;
}

bool WithinRelativeTolerance(double actual, double expected, double tolerance) {
  const double scale = std::max(std::abs(actual), std::abs(expected));
  if (scale == 0.0) return true;
  return std::abs(actual - expected) <= tolerance * scale;
}

// Platform tag matched against the baseline's optional check.platforms map,
// so one checked-in baseline can carry per-platform tolerance widenings
// (allocator and libm differences move traffic and recall by platform-
// specific amounts at paper scale).
const char* PlatformTag() {
#if defined(__APPLE__) && (defined(__aarch64__) || defined(__arm64__))
  return "darwin-arm64";
#elif defined(__APPLE__)
  return "darwin-x86_64";
#elif defined(__linux__) && defined(__aarch64__)
  return "linux-aarch64";
#elif defined(__linux__)
  return "linux-x86_64";
#else
  return "unknown";
#endif
}

// Tolerances for the baseline diff. Defaults reproduce the historical
// hard-coded policy (counters 10%, gauges 5%); a baseline may override them
// through an optional top-level "check" object:
//
//   "check": {
//     "counter_tolerance": 0.10,
//     "gauge_tolerance": 0.05,
//     "keys": { "benchq.range_recall": 0.02 },         // per-key override
//     "abs_keys": { "scale.p1000.peak_rss_mb": 512 },  // absolute |a-e| bound
//     "platforms": { "linux-aarch64": { "gauge_tolerance": 0.08 } }
//   }
//
// "abs_keys" entries switch the named key from relative to absolute
// tolerance (|actual - expected| <= bound) — the right shape for peak-RSS
// gauges, where a small baseline would make any relative band either
// meaninglessly wide or flaky against allocator noise. A matching platforms
// entry is applied on top of the file-level values.
struct CheckConfig {
  double counter_tolerance = 0.10;
  double gauge_tolerance = 0.05;
  std::map<std::string, double> key_tolerances;
  std::map<std::string, double> abs_tolerances;

  double ForCounter(const std::string& key) const {
    const auto it = key_tolerances.find(key);
    return it != key_tolerances.end() ? it->second : counter_tolerance;
  }
  double ForGauge(const std::string& key) const {
    const auto it = key_tolerances.find(key);
    return it != key_tolerances.end() ? it->second : gauge_tolerance;
  }
  /// Absolute tolerance for `key`, or a negative value when the key uses the
  /// relative policy.
  double AbsoluteFor(const std::string& key) const {
    const auto it = abs_tolerances.find(key);
    return it != abs_tolerances.end() ? it->second : -1.0;
  }
};

void ApplyCheckObject(const obs::Json& check, CheckConfig* config) {
  const obs::Json* counter = check.Find("counter_tolerance");
  if (counter != nullptr && counter->is_number()) {
    config->counter_tolerance = counter->as_number();
  }
  const obs::Json* gauge = check.Find("gauge_tolerance");
  if (gauge != nullptr && gauge->is_number()) {
    config->gauge_tolerance = gauge->as_number();
  }
  const obs::Json* keys = check.Find("keys");
  if (keys != nullptr && keys->is_object()) {
    for (const auto& [key, value] : keys->members()) {
      if (value.is_number()) config->key_tolerances[key] = value.as_number();
    }
  }
  const obs::Json* abs_keys = check.Find("abs_keys");
  if (abs_keys != nullptr && abs_keys->is_object()) {
    for (const auto& [key, value] : abs_keys->members()) {
      if (value.is_number()) config->abs_tolerances[key] = value.as_number();
    }
  }
}

CheckConfig ParseCheckConfig(const obs::Json& baseline_root) {
  CheckConfig config;
  const obs::Json* check = baseline_root.Find("check");
  if (check == nullptr || !check->is_object()) return config;
  ApplyCheckObject(*check, &config);
  const obs::Json* platforms = check->Find("platforms");
  if (platforms != nullptr && platforms->is_object()) {
    const obs::Json* mine = platforms->Find(PlatformTag());
    if (mine != nullptr && mine->is_object()) ApplyCheckObject(*mine, &config);
  }
  return config;
}

// Diffs the report's counters and gauges against a baseline report under
// `config`'s relative tolerances. Wall-clock keys are skipped; a baseline key
// missing from the report is an error; keys the baseline does not know are
// only warned about (new metrics should be added to the baseline, not block
// it). Returns the number of violations.
int DiffAgainstBaseline(const obs::MetricsSnapshot& actual,
                        const obs::MetricsSnapshot& baseline,
                        const CheckConfig& config) {
  int violations = 0;
  for (const auto& [key, expected] : baseline.counters) {
    if (IsWallClockKey(key)) continue;
    const auto it = actual.counters.find(key);
    if (it == actual.counters.end()) {
      std::fprintf(stderr, "check_report: counter '%s' missing from report\n",
                   key.c_str());
      ++violations;
      continue;
    }
    const double actual_value = static_cast<double>(it->second);
    const double expected_value = static_cast<double>(expected);
    const double abs_tolerance = config.AbsoluteFor(key);
    if (abs_tolerance >= 0.0) {
      if (std::abs(actual_value - expected_value) > abs_tolerance) {
        std::fprintf(stderr,
                     "check_report: counter '%s' = %llu, baseline %llu "
                     "(>|%g| absolute)\n",
                     key.c_str(), static_cast<unsigned long long>(it->second),
                     static_cast<unsigned long long>(expected), abs_tolerance);
        ++violations;
      }
      continue;
    }
    const double tolerance = config.ForCounter(key);
    if (!WithinRelativeTolerance(actual_value, expected_value, tolerance)) {
      std::fprintf(stderr,
                   "check_report: counter '%s' = %llu, baseline %llu (>%g%%)\n",
                   key.c_str(), static_cast<unsigned long long>(it->second),
                   static_cast<unsigned long long>(expected), tolerance * 100.0);
      ++violations;
    }
  }
  for (const auto& [key, expected] : baseline.gauges) {
    if (IsWallClockKey(key)) continue;
    const auto it = actual.gauges.find(key);
    if (it == actual.gauges.end()) {
      std::fprintf(stderr, "check_report: gauge '%s' missing from report\n",
                   key.c_str());
      ++violations;
      continue;
    }
    const double abs_tolerance = config.AbsoluteFor(key);
    if (abs_tolerance >= 0.0) {
      if (std::abs(it->second - expected) > abs_tolerance) {
        std::fprintf(stderr,
                     "check_report: gauge '%s' = %g, baseline %g "
                     "(>|%g| absolute)\n",
                     key.c_str(), it->second, expected, abs_tolerance);
        ++violations;
      }
      continue;
    }
    const double tolerance = config.ForGauge(key);
    if (!WithinRelativeTolerance(it->second, expected, tolerance)) {
      std::fprintf(stderr,
                   "check_report: gauge '%s' = %g, baseline %g (>%g%%)\n",
                   key.c_str(), it->second, expected, tolerance * 100.0);
      ++violations;
    }
  }
  for (const auto& [key, value] : actual.counters) {
    (void)value;
    if (!IsWallClockKey(key) && !baseline.counters.count(key)) {
      std::fprintf(stderr, "check_report: note: counter '%s' not in baseline\n",
                   key.c_str());
    }
  }
  for (const auto& [key, value] : actual.gauges) {
    (void)value;
    if (!IsWallClockKey(key) && !baseline.gauges.count(key)) {
      std::fprintf(stderr, "check_report: note: gauge '%s' not in baseline\n",
                   key.c_str());
    }
  }
  return violations;
}

Result<obs::Json> LoadJson(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return InvalidArgumentError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return obs::Json::Parse(buffer.str());
}

const obs::Json* FindSpan(const obs::Json& spans, const std::string& name) {
  for (const obs::Json& span : spans.items()) {
    const obs::Json* n = span.Find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) return &span;
  }
  return nullptr;
}

int Run(const std::string& path, const std::string& baseline_path) {
  std::ifstream in(path);
  CHECK_REPORT(in.good(), "cannot open report file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<obs::Json> parsed = obs::Json::Parse(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "check_report: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const obs::Json& report = parsed.value();
  CHECK_REPORT(report.is_object(), "report root must be an object");

  const obs::Json* version = report.Find("schema_version");
  CHECK_REPORT(version != nullptr && version->is_number() &&
                   static_cast<int>(version->as_number()) ==
                       obs::kReportSchemaVersion,
               "schema_version must be 1");

  const obs::Json* meta = report.Find("run_meta");
  CHECK_REPORT(meta != nullptr && meta->is_object(), "run_meta must be an object");
  const obs::Json* bench = meta->Find("bench");
  CHECK_REPORT(bench != nullptr && bench->is_string() && !bench->as_string().empty(),
               "run_meta.bench must be a non-empty string");

  const obs::Json* metrics = report.Find("metrics");
  CHECK_REPORT(metrics != nullptr && metrics->is_object(),
               "metrics must be an object");
  size_t named = 0;
  for (const char* family : {"counters", "gauges", "histograms"}) {
    const obs::Json* group = metrics->Find(family);
    CHECK_REPORT(group != nullptr && group->is_object(),
                 "metrics.{counters,gauges,histograms} must be objects");
    named += group->members().size();
  }
  // Round-trip through the snapshot parser — the strictest structural check.
  Result<obs::MetricsSnapshot> snapshot = obs::MetricsFromJson(report);
  if (!snapshot.ok()) {
    std::fprintf(stderr, "check_report: %s\n",
                 snapshot.status().ToString().c_str());
    return 1;
  }

  const obs::Json* spans = report.Find("spans");
  CHECK_REPORT(spans != nullptr && spans->is_array(), "spans must be an array");
  const obs::Json* dropped = report.Find("dropped_spans");
  CHECK_REPORT(dropped != nullptr && dropped->is_number(),
               "dropped_spans must be a number");
  // Saturated buffers are a data-quality warning, not a failure: the run
  // completed, its summaries dropped detail. Surface it so CI logs show when
  // a bench outgrows the span or flight-recorder capacity.
  if (dropped->as_number() > 0) {
    std::fprintf(stderr,
                 "check_report: warning: %.0f spans dropped (span buffer "
                 "saturated; deepest traces are incomplete)\n",
                 dropped->as_number());
  }
  const obs::Json* dropped_events = report.Find("dropped_events");
  if (dropped_events != nullptr && dropped_events->is_number() &&
      dropped_events->as_number() > 0) {
    std::fprintf(stderr,
                 "check_report: warning: %.0f flight-recorder events dropped "
                 "(event buffer saturated; traces are truncated)\n",
                 dropped_events->as_number());
  }

  CHECK_REPORT(named >= 10, "expected >= 10 named metrics");
  // Build spans come from HyperMNetwork::Build, which always gauges
  // build.total_items. Channel-only runs (bench_channel --scale) never build
  // a network and legitimately carry no build span.
  const obs::Json* gauges_group = metrics->Find("gauges");
  const bool built_network =
      gauges_group != nullptr && gauges_group->Find("build.total_items") != nullptr;
  if (built_network) {
    const obs::Json* build = FindSpan(*spans, "build");
    CHECK_REPORT(build != nullptr, "missing 'build' span");
    const obs::Json* publish = FindSpan(*spans, "build/publish");
    CHECK_REPORT(publish != nullptr, "missing 'build/publish' span");
    const obs::Json* parent = publish->Find("parent");
    const obs::Json* build_id = build->Find("id");
    CHECK_REPORT(parent != nullptr && build_id != nullptr &&
                     static_cast<int>(parent->as_number()) ==
                         static_cast<int>(build_id->as_number()),
                 "'build/publish' must nest under 'build'");
  }
  // Build-only benches legitimately have no query spans; demand them exactly
  // when the run's counters say queries were served.
  const obs::Json* counters = metrics->Find("counters");
  const bool ran_queries = counters->Find("query.range_count") != nullptr ||
                           counters->Find("query.knn_count") != nullptr;
  if (ran_queries) {
    CHECK_REPORT(FindSpan(*spans, "query/range") != nullptr ||
                     FindSpan(*spans, "query/knn") != nullptr,
                 "missing a query span (query/range or query/knn)");
    CHECK_REPORT(FindSpan(*spans, "query/layer0") != nullptr,
                 "missing per-layer span query/layer0");
  }

  if (!baseline_path.empty()) {
    Result<obs::Json> baseline_root = LoadJson(baseline_path);
    if (!baseline_root.ok()) {
      std::fprintf(stderr, "check_report: baseline: %s\n",
                   baseline_root.status().ToString().c_str());
      return 1;
    }
    Result<obs::MetricsSnapshot> baseline =
        obs::MetricsFromJson(baseline_root.value());
    if (!baseline.ok()) {
      std::fprintf(stderr, "check_report: baseline: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    const CheckConfig config = ParseCheckConfig(baseline_root.value());
    const int violations =
        DiffAgainstBaseline(snapshot.value(), baseline.value(), config);
    if (violations > 0) {
      std::fprintf(stderr, "check_report: %d baseline violation(s) vs %s\n",
                   violations, baseline_path.c_str());
      return 1;
    }
    std::printf("check_report: baseline %s matched\n", baseline_path.c_str());
  }

  std::printf("check_report: %s OK (%zu metrics, %zu spans)\n", path.c_str(),
              named, spans->items().size());
  return 0;
}

}  // namespace
}  // namespace hyperm

int main(int argc, char** argv) {
  if (argc != 2 && argc != 3) {
    std::fprintf(stderr, "usage: check_report <report.json> [baseline.json]\n");
    return 2;
  }
  return hyperm::Run(argv[1], argc == 3 ? argv[2] : "");
}
