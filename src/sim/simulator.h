// Discrete-event network simulator.
//
// The paper evaluates Hyper-M on a simulated CAN: "we simulated the parallel
// behavior of a peer-to-peer network with a scheduler class and an event
// queue. Every message generated in the network is sent to the event queue.
// Periodically, parallel execution is simulated by emptying the queue."
// This module is that scheduler: a time-ordered event queue with
// deterministic FIFO tie-breaking, on top of which the overlay modules build
// message passing.

#ifndef HYPERM_SIM_SIMULATOR_H_
#define HYPERM_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

namespace hyperm::sim {

/// Simulated time in milliseconds.
using TimeMs = double;

/// A deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant fire in scheduling order. The clock
/// only advances inside Run()/RunUntil().
///
/// Dispatch drains all events sharing a timestamp in one heap batch: the
/// same-tick prefix is extracted once (one sift-down per event, no
/// re-comparison against later timestamps) and executed in seq order.
/// Because events scheduled *during* a batch always receive a larger seq
/// than every extracted event, the observable execution order is identical
/// to one-at-a-time dispatch. Constraint: scheduled callbacks must not call
/// Run()/RunUntil() re-entrantly (nothing in the tree does — heal-window
/// waits run from the driving thread between events).
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  TimeMs now() const { return now_; }

  /// Schedules `fn` to run `delay` (>= 0) after the current time.
  void ScheduleAfter(TimeMs delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `when` (>= now()).
  void ScheduleAt(TimeMs when, std::function<void()> fn);

  /// Schedules `fn` under a coalescing key: at most one live callback per
  /// key. Re-scheduling a key supersedes any still-pending callback for it —
  /// the stale heap entry fires as a no-op (lazy deletion, counted in
  /// coalesced()). This is the idiom for per-peer refresh timers where a
  /// state change should reset the pending timer instead of stacking a
  /// duplicate.
  void ScheduleKeyedAfter(uint64_t key, TimeMs delay, std::function<void()> fn);

  /// Drains the queue completely; returns the number of events executed.
  /// `max_events` guards against runaway feedback loops (0 = unlimited).
  uint64_t Run(uint64_t max_events = 0);

  /// Executes events with time <= `until`, then sets the clock to `until`.
  /// Returns the number of events executed.
  uint64_t RunUntil(TimeMs until);

  /// Number of pending events (superseded keyed timers still count until
  /// their heap slot drains).
  size_t pending() const { return queue_.size(); }

  /// Total events executed since construction (keyed no-op firings are not
  /// executions).
  uint64_t executed() const { return executed_; }

  /// Superseded or cancelled keyed callbacks that drained as no-ops.
  uint64_t coalesced() const { return coalesced_; }

 private:
  struct Event {
    TimeMs time;
    uint64_t seq;  // FIFO tie-break for equal timestamps
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Moves every event sharing the earliest timestamp (or <= `until` when
  /// bounded) into `batch`, up to `limit` events (0 = unlimited).
  void ExtractBatch(std::vector<Event>* batch, bool bounded, TimeMs until,
                    uint64_t limit);

  TimeMs now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  uint64_t coalesced_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> queue_;
  // Generation per coalescing key; a keyed heap entry only runs if it still
  // carries the latest generation for its key.
  std::unordered_map<uint64_t, uint64_t> keyed_gen_;
};

}  // namespace hyperm::sim

#endif  // HYPERM_SIM_SIMULATOR_H_
