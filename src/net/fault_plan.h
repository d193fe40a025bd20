// Fault injection plan for the transport (net::UnreliableTransport), which
// every network sends through.
//
// The paper's setting is a MANET (conference room, train car): radio links
// drop packets, peers crash mid-query and come back, and the room can split
// into radio islands. A FaultPlan is the declarative, seeded description of
// those faults for one simulated run — a per-transmission loss probability,
// a timed crash/rejoin schedule, and timed partitions — so every experiment
// is reproducible from (plan, seed) alone.
//
// FaultState is the live view the transport consults per message: which
// peers are currently up (crash events are applied by scheduled simulator
// callbacks, because a crash has side effects — the node's volatile summary
// store is wiped) and whether two peers are connected at a given instant
// (partitions are pure time-window predicates, evaluated on demand).

#ifndef HYPERM_NET_FAULT_PLAN_H_
#define HYPERM_NET_FAULT_PLAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace hyperm::net {

/// One peer availability transition: at `at_ms`, `peer` goes down (crash,
/// losing its volatile overlay storage) or comes back up (rejoin, empty).
struct PeerEvent {
  sim::TimeMs at_ms = 0.0;
  int peer = -1;
  bool up = false;  ///< false = crash, true = rejoin
};

/// A network partition: during [start_ms, end_ms) no message crosses between
/// `group` and its complement. Peers inside a group communicate normally.
struct Partition {
  sim::TimeMs start_ms = 0.0;
  sim::TimeMs end_ms = 0.0;
  std::vector<int> group;
};

/// Declarative fault schedule for one run. Default-constructed plans inject
/// nothing: every message is delivered on its first attempt (the paper's
/// fault-free network), through the same transport as a faulty run.
struct FaultPlan {
  double loss_rate = 0.0;  ///< P(one physical transmission is lost)
  std::vector<PeerEvent> peer_events;
  std::vector<Partition> partitions;

  /// Structural validation: loss_rate in [0,1], events and partition windows
  /// at non-negative times, peer ids in [0, num_peers).
  Status Validate(int num_peers) const;
};

/// Live fault state consulted by the transport on every physical send.
/// Crash/rejoin transitions are pushed in by scheduled events (SetUp);
/// partition membership is evaluated against the plan's time windows.
class FaultState {
 public:
  FaultState(int num_peers, const FaultPlan& plan);

  /// True iff `peer` is currently up. Out-of-range peers are reported down.
  bool up(int peer) const;

  /// Applies one crash/rejoin transition (called by scheduled fault events).
  void SetUp(int peer, bool up);

  /// True iff a message from `a` to `b` is not blocked by a partition active
  /// at `now`. Peer availability is checked separately via up().
  bool Connected(int a, int b, sim::TimeMs now) const;

  int num_peers() const { return static_cast<int>(up_.size()); }

 private:
  struct ActivePartition {
    sim::TimeMs start_ms;
    sim::TimeMs end_ms;
    std::vector<char> in_group;  // indexed by peer id
  };

  std::vector<char> up_;
  std::vector<ActivePartition> partitions_;
};

}  // namespace hyperm::net

#endif  // HYPERM_NET_FAULT_PLAN_H_
