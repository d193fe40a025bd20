// Metrics registry: named counters, gauges and fixed-bucket histograms.
//
// The paper's whole argument is quantitative (hops per publication, recall
// per contact budget, load spread), so every subsystem reports what it does
// through one process-wide registry instead of ad-hoc printf accounting.
// Metrics are registered on first use and never removed, so handles stay
// valid for the life of the process; Reset() zeroes values but keeps the
// registrations (cached handles in hot paths survive a reset).
//
// Naming convention (see DESIGN.md "Observability"): lowercase dotted paths,
// `subsystem.quantity[_unit]` — e.g. `can.route_hops`, `kmeans.wall_us`,
// `net.bytes_per_message`.
//
// Thread-safety: none. The registry, its metrics and the span tracer
// (trace.h) are written only by the orchestrating thread. Pool tasks
// (common/thread_pool.h) record nothing: they write their own result slot,
// and the caller records at the ordered drain (DESIGN.md §8), so metric
// values are identical at any thread count.
//
// Use the HM_OBS_* macros from trace.h in instrumented code — they cache the
// handle in a function-local static.

#ifndef HYPERM_OBS_METRICS_H_
#define HYPERM_OBS_METRICS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace hyperm::obs {

/// Monotone event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }
  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }
  void Reset() { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Bucket layout of a histogram: ascending edges e0 < e1 < ... < en define
/// n inner buckets [e_i, e_{i+1}) plus an underflow (< e0) and an overflow
/// (>= en) bucket, so no observation is ever lost.
struct Buckets {
  std::vector<double> edges;

  /// n equal-width buckets spanning [lo, hi].
  static Buckets Linear(double lo, double hi, int n);

  /// Edges lo, lo*factor, lo*factor^2, ... (n+1 edges, n buckets).
  static Buckets Exponential(double lo, double factor, int n);

  /// Caller-supplied ascending edges.
  static Buckets Explicit(std::vector<double> edges);
};

/// Immutable copy of a histogram's state (see Histogram::Snapshot).
struct HistogramSnapshot {
  std::vector<double> edges;
  std::vector<uint64_t> counts;  ///< inner buckets, size = edges.size() - 1
  uint64_t underflow = 0;
  uint64_t overflow = 0;
  uint64_t count = 0;  ///< total observations (inner + under + over)
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// bucket containing the target rank, clamped to the observed [min, max].
  /// Ranks landing in the underflow bucket report min, in the overflow
  /// bucket max. 0 for an empty histogram — a sentinel the caller must gate
  /// on count itself; the JSON exporter surfaces p50/p95/p99 through this
  /// but omits the keys entirely when count == 0.
  double Quantile(double q) const;
};

/// Fixed-bucket histogram with explicit underflow/overflow buckets.
class Histogram {
 public:
  explicit Histogram(const Buckets& buckets);

  /// A NaN observation lands in the overflow bucket and leaves sum, min and
  /// max as they are.
  void Observe(double value);

  /// Records `n` observations of the same value in one update — the hot
  /// transmit path batches its per-hop observations per message. For
  /// integer-valued `value` (all batched call sites) the resulting snapshot
  /// is bit-identical to `n` repeated Observe calls: count/bucket updates
  /// are integers, and `sum += value * n` lands on the same exact double as
  /// `n` exact integer additions while the sum stays below 2^53.
  void ObserveN(double value, uint64_t n);

  HistogramSnapshot Snapshot() const { return snap_; }
  uint64_t count() const { return snap_.count; }
  void Reset();

 private:
  HistogramSnapshot snap_;  // doubles as live state
};

/// Point-in-time copy of a whole registry; the unit of export.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Total number of named metrics of all three kinds.
  size_t size() const {
    return counters.size() + gauges.size() + histograms.size();
  }
};

/// Registry of named metrics. Handles returned by the Get* methods are
/// stable for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric. A histogram's bucket layout is fixed
  /// by the first registration; later callers get the existing instance
  /// regardless of the buckets they pass.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, const Buckets& buckets);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every value but keeps all registrations (handles stay valid).
  void Reset();

  /// The process-wide registry every HM_OBS_* macro records into.
  static MetricsRegistry& Global();

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace hyperm::obs

#endif  // HYPERM_OBS_METRICS_H_
