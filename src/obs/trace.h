// Lightweight span tracer + the HM_OBS_* instrumentation macros.
//
// A span is a named, timed phase; spans nest (Build -> per-peer publish,
// query -> per-layer routing), forming the trace tree the JSON exporter
// ships next to the metrics. The tracer keeps a bounded in-memory buffer
// (spans beyond the capacity are counted, not stored) so long sweeps cannot
// exhaust memory.
//
// Span naming convention (DESIGN.md "Observability"): slash-separated path
// segments mirroring the pipeline, e.g. `build`, `build/publish`,
// `query/range`, `query/layer0`.
//
// Thread-safety: none; only the orchestrating thread opens spans. A pool
// task (common/thread_pool.h) neither opens spans nor records metrics
// (DESIGN.md §8).

#ifndef HYPERM_OBS_TRACE_H_
#define HYPERM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace hyperm::obs {

/// One recorded (possibly still open) span.
struct SpanRecord {
  std::string name;
  int32_t id = -1;
  int32_t parent = -1;     ///< index of the enclosing span, -1 for roots
  int32_t depth = 0;       ///< 0 for roots
  double start_us = 0.0;   ///< offset from the tracer's epoch (last Reset)
  double duration_us = -1.0;  ///< -1 while the span is open
};

/// Records nested spans into a bounded buffer. Spans must be ended in LIFO
/// order, which the ScopedSpan RAII guard guarantees.
class Tracer {
 public:
  Tracer();

  /// Opens a span nested under the innermost open span. Returns the span id,
  /// or -1 when the buffer is full (the span is counted in dropped()).
  int Begin(std::string name);

  /// Closes the span (no-op for id < 0). Must be the innermost open span.
  void End(int id);

  /// All recorded spans in start order. Open spans have duration_us == -1.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Spans not recorded because the buffer was full.
  uint64_t dropped() const { return dropped_; }

  /// Nesting depth of the innermost open span + 1 (0 when idle).
  int open_depth() const { return static_cast<int>(open_.size()); }

  /// Clears all spans, re-anchors the epoch, resets the dropped counter.
  /// Must not be called while spans are open.
  void Reset();

  /// Buffer capacity; once reached, new spans are dropped (default 4096).
  void set_capacity(size_t capacity) { capacity_ = capacity; }
  size_t capacity() const { return capacity_; }

  /// The process-wide tracer the HM_OBS_SPAN macro records into.
  static Tracer& Global();

 private:
  double NowUs() const;

  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // ids of currently open spans, outermost first
  size_t capacity_ = 4096;
  uint64_t dropped_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII guard opening a span for the current scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, Tracer& tracer = Tracer::Global())
      : tracer_(&tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// RAII timer observing its scope's wall-clock duration (us) into a
/// histogram — per-unit timing without one span per unit.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace hyperm::obs

// Instrumentation macros ------------------------------------------------------
//
// All record into the global registry/tracer and cache the metric handle in a
// function-local static (registrations are permanent, so handles survive
// MetricsRegistry::Reset).

#define HM_OBS_CONCAT_INNER_(a, b) a##b
#define HM_OBS_CONCAT_(a, b) HM_OBS_CONCAT_INNER_(a, b)

/// Opens a span covering the rest of the enclosing scope.
#define HM_OBS_SPAN(name) \
  ::hyperm::obs::ScopedSpan HM_OBS_CONCAT_(hm_obs_span_, __LINE__)((name))

/// counter `name` += delta.
#define HM_OBS_COUNTER_ADD(name, delta)                                 \
  do {                                                                  \
    static ::hyperm::obs::Counter& hm_obs_c =                           \
        ::hyperm::obs::MetricsRegistry::Global().GetCounter((name));    \
    hm_obs_c.Add(static_cast<uint64_t>(delta));                         \
  } while (0)

/// gauge `name` = value.
#define HM_OBS_GAUGE_SET(name, value)                                   \
  do {                                                                  \
    static ::hyperm::obs::Gauge& hm_obs_g =                             \
        ::hyperm::obs::MetricsRegistry::Global().GetGauge((name));      \
    hm_obs_g.Set(static_cast<double>(value));                           \
  } while (0)

/// histogram `name` (bucket layout fixed on first use) observes value.
#define HM_OBS_HISTOGRAM(name, buckets, value)                          \
  do {                                                                  \
    static ::hyperm::obs::Histogram& hm_obs_h =                         \
        ::hyperm::obs::MetricsRegistry::Global().GetHistogram((name),   \
                                                             (buckets)); \
    hm_obs_h.Observe(static_cast<double>(value));                       \
  } while (0)

/// histogram `name` observes `value` `n` times (one update; see
/// Histogram::ObserveN for the bit-identity contract).
#define HM_OBS_HISTOGRAM_N(name, buckets, value, n)                      \
  do {                                                                   \
    static ::hyperm::obs::Histogram& hm_obs_hn =                         \
        ::hyperm::obs::MetricsRegistry::Global().GetHistogram((name),    \
                                                             (buckets)); \
    hm_obs_hn.ObserveN(static_cast<double>(value),                       \
                       static_cast<uint64_t>(n));                        \
  } while (0)

/// Observes the wall-clock duration (us) of the rest of the enclosing scope
/// into histogram `name`.
#define HM_OBS_TIMER(name, buckets)                                     \
  static ::hyperm::obs::Histogram& HM_OBS_CONCAT_(hm_obs_th_, __LINE__) = \
      ::hyperm::obs::MetricsRegistry::Global().GetHistogram((name), (buckets)); \
  ::hyperm::obs::ScopedTimer HM_OBS_CONCAT_(hm_obs_timer_, __LINE__)(   \
      HM_OBS_CONCAT_(hm_obs_th_, __LINE__))

#endif  // HYPERM_OBS_TRACE_H_
