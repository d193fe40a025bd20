// The physical radio substrate beneath the transport
// (net::UnreliableTransport), installed when channel.enabled.
//
// The paper's setting is a room-scale ad-hoc radio network, but the overlay
// model above treats every overlay hop as one free physical transmission
// between any two peers. This module closes that gap: peers live at physical
// positions in a field (manet::ManetTopology), one overlay hop costs one
// queued radio transmission per hop of the current forwarding path, each
// node owns a FIFO transmit queue with finite bandwidth and neighbourhood
// contention, and peers that mobility has split into different radio islands
// are simply unreachable until the graph heals — partitions *emerge* from
// geometry instead of being scripted in a FaultPlan.
//
// PR 10 splits the monolith into two swappable seams (DESIGN.md §16):
//
//  * MacModel (channel/mac.h) decides how one link-layer frame occupies a
//    radio — the legacy linear-stretch model by default, or 802.11-style
//    CSMA/CA with carrier sense, binary exponential backoff and collisions.
//  * route::RoutingProtocol (route/protocol.h) decides the forwarding path —
//    the omniscient epoch-cached-BFS oracle by default, or AODV-flavoured
//    distributed discovery whose control frames burn real MAC airtime.
//
// Under the defaults (oracle + legacy stretch) the channel is bit-identical
// to the pre-seam implementation: same events, same counters, same
// latencies; `bench_partition --paper` goldens are byte-equal.
//
// Determinism: the channel's randomness is the placement stream
// MixSeed(seed, 0) and the mobility stream MixSeed(seed, 1); the CSMA MAC
// adds per-node streams off MacOptions::seed. All are consumed on the
// simulator thread only, so a fixed (options, seed, workload) reproduces the
// exact same latencies and drop patterns at any host thread count.

#ifndef HYPERM_CHANNEL_RADIO_CHANNEL_H_
#define HYPERM_CHANNEL_RADIO_CHANNEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/mac.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "manet/topology.h"
#include "net/transport.h"
#include "route/protocol.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace hyperm::channel {

/// Radio-channel configuration (one member of HyperMOptions). Disabled by
/// default: the transport then keeps its free-channel LinkModel behavior.
struct ChannelOptions {
  bool enabled = false;

  /// Physical deployment. `field.num_nodes` is overridden with the network's
  /// peer count at Create time; one peer == one radio node.
  manet::TopologyOptions field;

  // Mobility: every tick_ms of simulated time each node moves
  // speed_m_per_s * tick_ms / 1000 meters toward its random waypoint and
  // connectivity is recomputed. speed 0 keeps the placement static.
  double tick_ms = 100.0;
  double speed_m_per_s = 1.0;

  // Serialisation model shared by every MAC. One transmission of b payload
  // bytes occupies the sending radio for at least
  // (tx_overhead_ms + b / bandwidth_bytes_per_ms) ms; how contention
  // inflates that is the MAC's business (mac.kind).
  double bandwidth_bytes_per_ms = 125.0;  ///< ~1 Mbit/s radio
  double tx_overhead_ms = 5.0;            ///< MAC + preamble per transmission

  /// Link-layer model (defaults to the legacy stretch MAC).
  MacOptions mac;

  /// Path selection (defaults to the omniscient oracle).
  route::RoutingOptions routing;

  uint64_t seed = 0x6368616eULL;  ///< placement + mobility randomness ("chan")

  /// Structural validation (positive tick/bandwidth/geometry, non-negative
  /// speed and overhead).
  Status Validate() const;
};

/// Running totals the channel exposes for benches and tests. The queue and
/// transmission fields are synced from the owning MacModel's counters on
/// every counters() read.
struct ChannelCounters {
  uint64_t mobility_steps = 0;        ///< RandomWaypointStep ticks executed
  uint64_t disconnected_steps = 0;    ///< ticks that left the graph split
  uint64_t radio_transmissions = 0;   ///< single-hop radio frames charged
  uint64_t unreachable_transmissions = 0;  ///< sends with no radio path
  uint64_t mac_dropped_transmissions = 0;  ///< sends lost to MAC retry limits
  uint64_t queued_transmissions = 0;  ///< frames that waited behind a queue
  double queue_wait_ms = 0.0;         ///< total time spent queued
};

/// Deterministic unit-disk radio channel with per-node FIFO transmit queues.
/// Implements net::PhysicalChannel; install on an UnreliableTransport via
/// set_channel. Single-threaded by design (like the transport above it).
class RadioChannel : public net::PhysicalChannel {
 public:
  /// Builds the channel for `num_peers` radio nodes. Placement comes from
  /// ManetTopology::Generate on the MixSeed(seed, 0) stream — connected at
  /// t = 0, so a fresh network can always bootstrap; mobility may split it
  /// later. `stats` (not owned, must outlive the channel) receives one
  /// RecordHop per physical radio transmission.
  static Result<std::unique_ptr<RadioChannel>> Create(int num_peers,
                                                      const ChannelOptions& options,
                                                      sim::NetworkStats* stats);

  /// True iff dst is currently radio-reachable from src (same island).
  bool Reachable(int src, int dst) const override;

  /// Charges one physical transmission attempt: the routing protocol
  /// resolves the forwarding path (possibly burning discovery airtime and
  /// latency first), then one MAC frame per hop, in order, each waiting out
  /// the sending node's queue. Latency is the arrival time at dst minus
  /// `now`. When no route exists, the source still burns one local frame
  /// (the radio cannot know the path is gone) and the result is flagged
  /// unreachable. When the MAC exhausts its retries mid-path the result is
  /// flagged mac_dropped and the routing protocol hears OnLinkBreak.
  net::ChannelTransmission Transmit(const net::Message& message,
                                    sim::TimeMs now) override;

  /// One mobility tick: advance every node speed * tick / 1000 meters toward
  /// its waypoint and rebuild connectivity (bumping the topology's
  /// connectivity epoch, which drops every cached route). Called by
  /// MobilityProcess on the simulator clock.
  void Step();

  /// Simulated time at which every transmit queue is empty again — benches
  /// advance past this before timing queries so publication backlog does not
  /// leak into query latency.
  sim::TimeMs DrainedAtMs() const { return mac_->DrainedAtMs(); }

  /// Number of nodes whose transmit queue is still busy at `now` — the
  /// flight recorder's queue-occupancy time-series probe samples this.
  int BusyNodesAt(sim::TimeMs now) const { return mac_->BusyNodesAt(now); }

  /// Transmit-queue depth of `node` at `now`, in milliseconds of pending
  /// airtime (0 when the queue is idle). This is the admission-control
  /// signal: a new transmission enqueued now waits at least this long.
  double QueueBacklogMs(int node, sim::TimeMs now) const {
    return mac_->QueueBacklogMs(node, now);
  }

  /// Largest per-node queue depth at `now` across all nodes.
  double MaxQueueBacklogMs(sim::TimeMs now) const {
    return mac_->MaxQueueBacklogMs(now);
  }

  /// High-watermark: the largest queue wait any single transmission has
  /// experienced so far (monotone over the run). The serving layer exports
  /// it as the channel.queue.high_watermark_ms gauge.
  double queue_high_watermark_ms() const {
    return mac_->queue_high_watermark_ms();
  }

  /// Island (connected-component) label of `node`, densely numbered from 0
  /// in ascending-node discovery order; -1 for out-of-range nodes. Two peers
  /// are mutually reachable iff their labels match — the hint detour routing
  /// and the partition benches key off. Delegates to the topology's lazily
  /// cached per-epoch labels.
  int island(int node) const;

  /// Number of distinct radio islands right now (1 when connected()).
  int num_islands() const;

  int num_nodes() const { return topology_.num_nodes(); }
  double tick_ms() const { return options_.tick_ms; }
  double step_m() const { return options_.speed_m_per_s * options_.tick_ms / 1000.0; }
  bool connected() const;
  const manet::ManetTopology& topology() const { return topology_; }
  const ChannelCounters& counters() const;

  /// The link-layer model (bench_routing reads its MacCounters).
  const MacModel& mac() const { return *mac_; }

  /// The path-selection protocol (bench_routing reads its RoutingCounters).
  const route::RoutingProtocol& router() const { return *router_; }

 private:
  RadioChannel(const ChannelOptions& options, manet::ManetTopology topology,
               sim::NetworkStats* stats);

  /// Forwards route-cache counter deltas accumulated inside the topology to
  /// the metrics registry (channel.route_cache.*) and emits one
  /// kRouteCacheBuild event when this transmission triggered BFS builds.
  void PublishRouteCacheObs(sim::TimeMs now, int src, int dst);

  /// Forwards MAC cause-counter deltas to the metrics registry as
  /// channel.mac.<cause> (never-silent: counter names come from
  /// obs::MacCauseName, whose numbering MacCause mirrors by static_assert).
  void PublishMacObs();

  ChannelOptions options_;
  manet::ManetTopology topology_;
  sim::NetworkStats* stats_;  // not owned
  Rng mobility_rng_;
  std::unique_ptr<MacModel> mac_;
  std::unique_ptr<route::RoutingProtocol> router_;
  mutable ChannelCounters counters_;  // queue fields synced in counters()
  manet::RouteCacheCounters emitted_route_;  // obs high-water mark
  MacCounters emitted_mac_;                  // obs high-water mark
  std::vector<int> path_scratch_;  // reused per Transmit (single-threaded)
};

}  // namespace hyperm::channel

#endif  // HYPERM_CHANNEL_RADIO_CHANNEL_H_
