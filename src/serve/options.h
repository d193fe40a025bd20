// Configuration of the heavy-traffic serving subsystem (src/serve).
//
// One ServeOptions struct covers the four cooperating pieces the engine
// wires together: the open-loop workload (Poisson arrivals over a
// Zipf-skewed query population), the per-peer query-result cache, the
// mined-shortcut miner and the admission controller. Everything is off /
// zero-cost by default so a network serving no ServeEngine traffic is
// bit-identical to a build without this subsystem.

#ifndef HYPERM_SERVE_OPTIONS_H_
#define HYPERM_SERVE_OPTIONS_H_

#include <cstdint>

namespace hyperm::serve {

/// Open-loop workload shape. Arrivals are scheduled up front from one seeded
/// RNG stream — a pure function of these options, independent of network
/// thread count or completion times (that independence is what makes the
/// load open-loop and the latency figures free of coordinated omission).
struct WorkloadOptions {
  double duration_ms = 10'000.0;  ///< simulated span arrivals are drawn over
  double offered_qps = 50.0;      ///< Poisson arrival rate (queries / sim-sec)
  int num_templates = 64;         ///< size of the query population
  double zipf_s = 1.0;            ///< popularity skew; 0 = uniform
  /// Fraction of templates compiled as range queries; the rest are k-NN.
  double range_fraction = 1.0;
  uint64_t seed = 0x73657276ULL;  ///< arrival + popularity stream ("serv")
};

/// Per-peer query-result cache (soft state).
struct CacheOptions {
  bool enabled = false;
  /// Entry lifetime in simulated ms. Pair with the network's republish
  /// period: an entry must not outlive the summaries it was computed from,
  /// and the summary epoch check already invalidates on any answer-relevant
  /// change — the TTL is the belt to that suspenders.
  double ttl_ms = 1'000.0;
};

/// Mined shortcut routes ((query cell -> entry node) associations promoted
/// into first-probe hints). The miner's grid, window and promotion threshold
/// are ShortcutMiner constants.
struct ShortcutOptions {
  bool enabled = false;
};

/// Admission control / load shedding. A shed is never silent: every dropped
/// arrival emits a kServeShed flight-recorder event and bumps the per-cause
/// serve.shed.* counter (ShedCause in engine.h names the causes).
struct AdmissionOptions {
  /// Shed when the worst per-node transmit-queue backlog exceeds this
  /// (channel::RadioChannel::MaxQueueBacklogMs). <= 0 disables the check.
  double max_backlog_ms = 0.0;
  /// Shed when the engine dispatches this arrival more than `max_lag_ms`
  /// after its scheduled time (the open-loop dispatch queue is itself
  /// saturated). <= 0 disables the check.
  double max_lag_ms = 0.0;
};

/// Everything the ServeEngine needs beyond the network itself.
struct ServeOptions {
  WorkloadOptions workload;
  CacheOptions cache;
  ShortcutOptions shortcuts;
  AdmissionOptions admission;

  double range_epsilon = 0.5;  ///< epsilon of range-query templates
  int knn_k = 10;              ///< k of k-NN templates
  /// Per-query deadline: a query whose time-to-answer (scheduled arrival ->
  /// answer, simulated) exceeds this misses its SLO and does not count
  /// toward goodput.
  double deadline_ms = 500.0;
};

}  // namespace hyperm::serve

#endif  // HYPERM_SERVE_OPTIONS_H_
