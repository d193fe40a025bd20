// The MAC seam: how one link-layer frame occupies a radio.
//
// PR 10 splits RadioChannel's monolithic TransmitOneHop into a swappable
// MacModel. A MAC owns the per-node FIFO transmit-queue tails (busy_until_),
// decides when a frame's airtime starts and ends, and reports whether the
// frame survived the channel. Two implementations:
//
//  * LegacyStretchMac — the historical model, bit-identical to the old
//    TransmitOneHop: contention is a linear stretch of the serialisation
//    time per busy radio neighbour, frames never fail. This is the default;
//    the `bench_partition --paper` goldens are byte-equal under it.
//
//  * CsmaCaMac — an 802.11-flavoured CSMA/CA model: carrier-sense deferral
//    while any neighbour's radio is busy, slotted binary-exponential
//    backoff, and hidden-terminal collision detection (each busy neighbour
//    of the *receiver* the sender cannot hear corrupts the frame
//    independently) with retransmit-until-retry-limit. A frame that exhausts
//    its retries is dropped — the channel reports it as a MAC loss and the
//    routing layer hears about the broken link.
//
// Determinism: the only randomness is CsmaCaMac's per-node backoff/collision
// streams, seeded SeedStream(options.seed).At(node) and consumed on the
// simulator thread only (the MAC, like the channel above it, is
// single-threaded by design).
//
// Never-silent accounting: every deferral, collision, retransmit and
// retry-limit drop lands in MacCounters, named by MacCause. The enum's
// numbering is pinned to obs::MacCauseName by a static_assert in mac.cc
// (the PR 9 shed-cause contract), and RadioChannel republishes the deltas
// as channel.mac.<cause> metrics after every transmission.

#ifndef HYPERM_CHANNEL_MAC_H_
#define HYPERM_CHANNEL_MAC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "manet/topology.h"
#include "net/transport.h"
#include "sim/simulator.h"

namespace hyperm::channel {

/// Why the MAC charged extra airtime or dropped a frame. Numbering mirrors
/// obs::MacCauseName (static_assert in mac.cc).
enum class MacCause : int32_t {
  kDeferral = 0,     ///< carrier-sense wait for a busy neighbourhood
  kCollision,        ///< frame corrupted at the receiver
  kRetransmit,       ///< retry after a collision
  kDropRetryLimit,   ///< retries exhausted; frame dropped, link reported broken
};

/// Human-readable cause label (forwards to obs::MacCauseName).
const char* MacCauseName(MacCause cause);

/// Legacy stretch: each busy radio neighbour lengthens a frame's airtime by
/// this fraction of its serialisation time.
inline constexpr double kContentionPerBusyNeighbor = 0.1;

// CSMA/CA constants (DESIGN.md §16).
inline constexpr double kCsmaSlotMs = 0.5;  ///< backoff slot width
inline constexpr int kCsmaCwMinSlots = 4;   ///< initial contention window (slots)
inline constexpr int kCsmaCwMaxSlots = 64;  ///< BEB ceiling
inline constexpr int kCsmaRetryLimit = 6;   ///< frame attempts before the drop
/// Per busy neighbour of the receiver: independent corruption probability
/// of one frame (hidden terminals the sender cannot sense).
inline constexpr double kCsmaCollisionPerBusyNeighbor = 0.02;

/// MAC configuration (one member of ChannelOptions). The default keeps the
/// legacy linear-stretch model, so existing configurations are unchanged.
struct MacOptions {
  enum class Kind {
    kLegacyStretch = 0,  ///< contention as a linear airtime stretch (default)
    kCsmaCa,             ///< carrier sense + slotted BEB + collisions
  };
  Kind kind = Kind::kLegacyStretch;
  uint64_t seed = 0x6d616321ULL;  ///< CSMA per-node backoff streams ("mac!")
};

/// Running MAC totals. frames_sent mirrors the channel's
/// radio_transmissions; the four cause counters are never-silent (every
/// kMacDefer/kMacCollision event has its counter and vice versa).
struct MacCounters {
  uint64_t frames_sent = 0;          ///< physical frames, retransmits included
  uint64_t queued_transmissions = 0; ///< frames that waited behind their queue
  double queue_wait_ms = 0.0;        ///< total time frames spent queued
  uint64_t deferrals = 0;            ///< MacCause::kDeferral
  uint64_t collisions = 0;           ///< MacCause::kCollision
  uint64_t retransmits = 0;          ///< MacCause::kRetransmit
  uint64_t drops_retry_limit = 0;    ///< MacCause::kDropRetryLimit
};

/// Outcome of one link-layer frame exchange (all attempts included).
struct FrameResult {
  sim::TimeMs done_ms = 0.0;  ///< when the sending radio frees up
  bool delivered = true;      ///< false: retry limit exhausted, frame lost
  int attempts = 1;           ///< physical transmissions charged
};

/// One radio's worth of link-layer behaviour. Owns the per-node queue tails
/// the channel's backlog/drain queries read. Single-threaded by contract.
class MacModel {
 public:
  /// Serialisation parameters shared by every model (copied out of
  /// ChannelOptions so the seam has no back-dependency on the channel).
  struct AirParams {
    double bandwidth_bytes_per_ms = 125.0;
    double tx_overhead_ms = 5.0;
  };

  MacModel(const manet::ManetTopology* topology, const AirParams& air);
  virtual ~MacModel() = default;

  /// Sends one frame of `message.bytes` payload from `node` to link-layer
  /// `receiver` (-1: broadcast / no ack expected — collision retries only
  /// apply to acked unicast frames toward a current neighbour).
  /// `message.dst` is the end-to-end destination, used for event tagging
  /// only. Returns when the radio frees up and whether the frame survived.
  virtual FrameResult SendFrame(int node, int receiver,
                                const net::Message& message,
                                sim::TimeMs ready_ms) = 0;

  /// Simulated time at which every transmit queue is empty again.
  sim::TimeMs DrainedAtMs() const;

  /// Number of nodes whose transmit queue is still busy at `now`.
  int BusyNodesAt(sim::TimeMs now) const;

  /// Pending airtime of `node`'s queue at `now` (0 when idle).
  double QueueBacklogMs(int node, sim::TimeMs now) const;

  /// Largest per-node queue depth at `now`.
  double MaxQueueBacklogMs(sim::TimeMs now) const;

  /// Largest queue wait any single frame has experienced (monotone).
  double queue_high_watermark_ms() const { return queue_high_watermark_ms_; }

  const MacCounters& counters() const { return counters_; }

 protected:
  /// Shared queue step: returns max(ready_ms, node's queue tail) and books
  /// the wait (counter + high watermark + kTxQueueWait event) exactly as the
  /// historical TransmitOneHop did.
  sim::TimeMs AcquireRadio(int node, sim::TimeMs ready_ms);

  /// Unstretched airtime of one frame: overhead + bytes / bandwidth.
  double SerialiseMs(uint64_t bytes) const;

  const manet::ManetTopology& topology() const { return *topology_; }

  const manet::ManetTopology* topology_;  // not owned
  AirParams air_;
  std::vector<sim::TimeMs> busy_until_;  // per-node transmit queue tail
  double queue_high_watermark_ms_ = 0.0;
  MacCounters counters_;
};

/// The historical contention model, bit-identical to the pre-seam
/// TransmitOneHop: one frame occupies the radio for
/// serialise * (1 + kContentionPerBusyNeighbor * busy_neighbors) ms and
/// always survives.
class LegacyStretchMac : public MacModel {
 public:
  LegacyStretchMac(const manet::ManetTopology* topology, const AirParams& air)
      : MacModel(topology, air) {}

  FrameResult SendFrame(int node, int receiver, const net::Message& message,
                        sim::TimeMs ready_ms) override;
};

/// 802.11-style CSMA/CA: carrier-sense deferral, slotted binary exponential
/// backoff, hidden-terminal collisions with retransmit-until-retry-limit.
class CsmaCaMac : public MacModel {
 public:
  /// `seed` keys the per-node backoff/collision streams (MacOptions::seed).
  CsmaCaMac(const manet::ManetTopology* topology, const AirParams& air,
            uint64_t seed);

  FrameResult SendFrame(int node, int receiver, const net::Message& message,
                        sim::TimeMs ready_ms) override;

 private:
  std::vector<Rng> node_rng_;  // per-node backoff/collision streams
};

/// Factory keyed on options.kind. `topology` must outlive the MAC.
Result<std::unique_ptr<MacModel>> CreateMac(const MacOptions& options,
                                            const MacModel::AirParams& air,
                                            const manet::ManetTopology* topology);

}  // namespace hyperm::channel

#endif  // HYPERM_CHANNEL_MAC_H_
