// Message-level transport between overlay nodes / application peers.
//
// Every overlay hop in the system — greedy routing forwards, replication and
// query flood edges, retrieve requests and responses — is one typed message
// with a payload byte size, sent through a Transport. Every network sends
// through one implementation, UnreliableTransport, the MANET model: each
// physical transmission can be lost, blocked by a partition, or addressed to
// a crashed peer (per a seeded FaultPlan); deliveries take LinkModel time (or
// the radio channel's queued airtime); a link-level ack/retry policy
// (RetryPolicy) retransmits with exponential backoff until delivery or the
// dead-letter budget is exhausted. Per-message randomness derives from
// MixSeed(seed, msg_id), never from wall clock or scheduling, so runs are
// deterministic. With the default (empty) FaultPlan and no channel every
// message is delivered on its first attempt after one RecordHop and one
// LinkModel hop time, which is the paper's fault-free network.
//
// The transport and the sim::NetworkStats it records into are single-threaded
// (message ids are consumed in call order, counters are plain values); every
// caller sends from the orchestrating thread — query level probes run in
// level order, and Build's pool tasks send nothing (DESIGN.md §8).

#ifndef HYPERM_NET_TRANSPORT_H_
#define HYPERM_NET_TRANSPORT_H_

#include <cstdint>
#include <vector>

#include "common/seed_stream.h"
#include "net/fault_plan.h"
#include "net/retry.h"
#include "sim/dissemination.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace hyperm::net {

/// What a message carries; drives per-type accounting in the fault benches.
enum class MessageType {
  kRoute = 0,         ///< greedy routing forward (key only)
  kInsert,            ///< cluster summary publication
  kReplicate,         ///< sphere replication into an overlapping zone
  kQueryFlood,        ///< range-query flood edge
  kRetrieveRequest,   ///< direct item request to an owner peer
  kRetrieveResponse,  ///< items shipped back to the querier
  kControl,           ///< maintenance (unpublish, handshakes)
};

/// One message between two peers (overlay node ids == application peer ids).
struct Message {
  MessageType type = MessageType::kControl;
  int src = -1;
  int dst = -1;
  uint64_t bytes = 0;             ///< payload size (drives latency + energy)
  sim::TrafficClass cls = sim::TrafficClass::kQuery;  ///< accounting class
};

/// Why a message exchange ended the way it did. `kDelivered` pairs with
/// HopResult::delivered == true; the four loss causes mirror the
/// TransportCounters drop classes and let callers distinguish *transient*
/// failures a heal window can fix (partition, unreachable island) from dead
/// ends (random loss after all retries, crashed peer).
enum class DeliveryOutcome {
  kDelivered = 0,     ///< the exchange completed
  kLostLoss,          ///< every attempt fell to the loss_rate draw
  kLostDown,          ///< src or dst was crashed on the last attempt
  kLostPartition,     ///< a scripted partition separated the pair
  kLostUnreachable,   ///< no physical radio path (geometry-derived island)
  kLostMac,           ///< dropped mid-path by the MAC's retry limit
};

/// Outcome of one (possibly retried) message exchange.
struct HopResult {
  bool delivered = false;
  double latency_ms = 0.0;  ///< serialisation + ack-timeout waits

  /// Cause of the final attempt's fate; kDelivered iff `delivered`.
  DeliveryOutcome outcome = DeliveryOutcome::kDelivered;
};

/// Running totals a transport exposes for benches and tests.
struct TransportCounters {
  uint64_t messages_sent = 0;   ///< physical transmissions (retries included)
  uint64_t retries = 0;         ///< retransmissions after an ack timeout
  uint64_t dead_letters = 0;    ///< messages never delivered
  uint64_t dropped_loss = 0;    ///< transmissions lost to the loss_rate draw
  uint64_t dropped_down = 0;    ///< transmissions to/from a crashed peer
  uint64_t dropped_partition = 0;  ///< transmissions across a scripted partition
  uint64_t dropped_unreachable = 0;  ///< no physical radio path (geometry-derived
                                     ///< partition; PhysicalChannel runs only)
  uint64_t dropped_mac = 0;  ///< frames lost to the MAC retry limit mid-path
                             ///< (CSMA/CA channel runs only)
};

/// One physical transmission attempt as costed by a PhysicalChannel.
struct ChannelTransmission {
  double latency_ms = 0.0;  ///< queue waits + serialisation along the path
  int radio_hops = 0;       ///< physical radio transmissions charged to stats
  bool reachable = true;    ///< false: no radio path existed; only the local
                            ///< transmission was charged
  bool mac_dropped = false;  ///< a route existed but the MAC exhausted its
                             ///< retries on one hop; the frame never arrived
};

/// The physical radio substrate beneath an UnreliableTransport. When
/// installed (set_channel), it replaces the free-channel LinkModel latency:
/// each overlay-hop attempt becomes one queued transmission per radio hop of
/// the current shortest physical path, and peers in different radio islands
/// are unreachable — partitions *emerge* from geometry instead of FaultPlan
/// literals. Implementations record per-radio-hop traffic into NetworkStats
/// themselves and must be deterministic given their seed.
class PhysicalChannel {
 public:
  virtual ~PhysicalChannel() = default;

  /// True iff a physical radio path currently exists between the two peers.
  virtual bool Reachable(int src, int dst) const = 0;

  /// Performs (and charges) one physical transmission attempt of `message`
  /// starting at simulated time `now`. Unreachable destinations still cost
  /// one local transmission — the radio cannot know the path is gone.
  virtual ChannelTransmission Transmit(const Message& message, sim::TimeMs now) = 0;
};

/// Abstract message transport: the seam the overlays send through.
/// UnreliableTransport is the implementation; tests substitute fakes.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one message, applying the implementation's delivery model.
  /// Traffic (hops/bytes/energy) is recorded into NetworkStats per physical
  /// transmission, whether or not it is delivered — radios burn energy on
  /// lost packets too.
  virtual HopResult SendHop(const Message& message) = 0;

  /// Availability of `peer` right now (by default any non-negative id).
  virtual bool peer_up(int peer) const { return peer >= 0; }

  /// Best-effort reachability hint: false when the transport already *knows*
  /// a send from `src` to `dst` cannot be delivered right now (crashed peer,
  /// active partition window, different radio island). True is not a delivery
  /// promise — losses and retries still apply. The default returns true.
  /// Detour routing consults this to skip doomed neighbours without burning
  /// a transmission.
  virtual bool ReachableHint(int src, int dst) const {
    (void)src;
    (void)dst;
    return true;
  }

  /// Snapshot of the transport's running totals.
  virtual TransportCounters counters() const = 0;
};

/// Transport configuration (one member of HyperMOptions).
struct NetOptions {
  /// Inert: every network sends through UnreliableTransport whatever its
  /// value, and the library reads it only in HyperMNetwork::unreliable().
  /// It stays because the benchmark driver (perfbench/driver.cc) sets it and
  /// reads unreliable() back to pick its clock and ledger mode; it goes with
  /// the next change to the benchmark.
  bool unreliable = false;
  FaultPlan faults;
  RetryPolicy retry;
  sim::LinkModel link;
  uint64_t seed = 0x6e657221;  ///< per-message randomness stream seed

  // Soft state: published summaries expire after ttl (swept every ttl / 2)
  // and owners republish periodically, so the index self-heals after
  // crashes. 0 disables either.
  double summary_ttl_ms = 0.0;
  double republish_period_ms = 0.0;
};

/// The MANET transport: seeded loss, crash & partition awareness via
/// FaultState, link-level ARQ per RetryPolicy. Single-threaded.
class UnreliableTransport : public Transport {
 public:
  /// `sim`, `stats` and `state` must outlive the transport.
  UnreliableTransport(sim::Simulator* sim, sim::NetworkStats* stats,
                      FaultState* state, const NetOptions& options);

  HopResult SendHop(const Message& message) override;
  bool peer_up(int peer) const override { return state_->up(peer); }
  bool ReachableHint(int src, int dst) const override;
  TransportCounters counters() const override { return counters_; }

  /// Installs the physical radio substrate (not owned; must outlive the
  /// transport; nullptr restores the free-channel LinkModel). With a channel,
  /// per-attempt latency and traffic come from queued multi-hop radio paths
  /// and geometry decides reachability; without one, behavior is bit-identical
  /// to the pre-channel transport.
  void set_channel(PhysicalChannel* channel) { channel_ = channel; }

  /// Read access to one destination's RTT estimator (adaptive mode only;
  /// nullptr otherwise or for out-of-range peers). For tests and benches.
  const RttEstimator* rtt_estimator(int peer) const;

 private:
  /// Ack-timeout wait charged for failed attempt `attempt` toward `dst` —
  /// static schedule, or the destination's Jacobson estimate when adaptive.
  double RetryWaitMs(int dst, int attempt) const;

  sim::Simulator* sim_;       // not owned
  sim::NetworkStats* stats_;  // not owned
  FaultState* state_;         // not owned
  PhysicalChannel* channel_ = nullptr;  // not owned; optional
  double loss_rate_;  // FaultPlan::loss_rate
  RetryPolicy retry_;
  sim::LinkModel link_;
  SeedStream msg_streams_;  // one independent Rng per physical transmission
  TransportCounters counters_;
  std::vector<RttEstimator> rtt_;  // per destination; adaptive mode only
};

}  // namespace hyperm::net

#endif  // HYPERM_NET_TRANSPORT_H_
